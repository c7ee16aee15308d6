package kernels

import (
	"testing"

	"graphtensor/internal/gpusim"
	"graphtensor/internal/tensor"
)

func TestUnfusedMatchesNAPA(t *testing.T) {
	rng := tensor.NewRNG(303)
	for _, m := range allModes {
		csr := randomBipartite(14, 24, 4, rng)
		x := tensor.Random(24, 8, 1, rng)
		dev := testDevice()
		ctx := NewCtx(dev)
		xd, _ := WrapDeviceMatrix(dev, x.Clone(), "x")
		fused, err := NAPA{}.Forward(ctx, &Graphs{CSR: csr}, xd, m)
		if err != nil {
			t.Fatal(err)
		}
		dev2 := testDevice()
		ctx2 := NewCtx(dev2)
		xd2, _ := WrapDeviceMatrix(dev2, x.Clone(), "x")
		unfused, err := Unfused{}.Forward(ctx2, &Graphs{CSR: csr}, xd2, m)
		if err != nil {
			t.Fatal(err)
		}
		if diff := fused.M.MaxAbsDiff(unfused.M); diff > 1e-6 {
			t.Errorf("modes %v: fused vs unfused differ by %g", m, diff)
		}
	}
}

func TestFusedReducesGlobalStores(t *testing.T) {
	rng := tensor.NewRNG(404)
	csr := randomBipartite(40, 70, 6, rng)
	x := tensor.Random(70, 16, 1, rng)
	m := NGCFModes()

	stores := func(s Strategy) int64 {
		dev := gpusim.NewDevice(gpusim.DefaultConfig())
		ctx := NewCtx(dev)
		xd, _ := WrapDeviceMatrix(dev, x.Clone(), "x")
		before := dev.Snapshot()
		out, _ := s.Forward(ctx, &Graphs{CSR: csr}, xd, m)
		out.Free()
		return dev.Snapshot().Sub(before).GlobalStores
	}
	if stores(NAPA{}) >= stores(Unfused{}) {
		t.Error("fused NAPA should store fewer bytes than unfused")
	}
}
