package multigpu

import (
	"testing"

	"graphtensor/internal/gpusim"
	"graphtensor/internal/prep"
)

// TestGroupOverlapAccounting pins the overlapped schedule's bookkeeping:
// the first batch has no preceding all-reduce to hide behind; from the
// second batch on, part of the scatter leaves the critical path and the
// overlapped step time beats the serialized one. Numerics must not notice:
// the losses are identical whether or not overlap is modeled.
func TestGroupOverlapAccounting(t *testing.T) {
	h := newGroupHarness(t, "gcn", prep.FormatCSRCSC)
	g, err := NewGroup(4, DefaultShards, gpusim.DefaultConfig(), true, h.factory())
	if err != nil {
		t.Fatal(err)
	}
	var losses []float64
	var stats []GroupStats
	for i := 0; i < 3; i++ {
		b := h.batch(t, i, 60)
		loss, err := g.TrainBatch(b, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		losses = append(losses, loss)
		stats = append(stats, g.LastStats())
		b.Release()
	}

	first, second := stats[0], stats[1]
	if first.OverlapEfficiency != 0 {
		t.Errorf("first batch overlap efficiency %v, want 0 (no preceding drain)", first.OverlapEfficiency)
	}
	if first.StepTime != first.StepTimeSerial {
		t.Errorf("first batch StepTime %v != serial %v", first.StepTime, first.StepTimeSerial)
	}
	if second.OverlapEfficiency <= 0 {
		t.Errorf("steady-state overlap efficiency %v, want > 0", second.OverlapEfficiency)
	}
	if second.StepTime >= second.StepTimeSerial {
		t.Errorf("overlapped step %v should beat serial %v", second.StepTime, second.StepTimeSerial)
	}
	for _, st := range stats {
		if st.CommTime != st.ScatterTime+st.AllReduceTime {
			t.Errorf("CommTime %v != scatter %v + all-reduce %v", st.CommTime, st.ScatterTime, st.AllReduceTime)
		}
		if st.StepTimeSerial != st.MaxDeviceCompute+st.CommTime {
			t.Errorf("StepTimeSerial %v != compute+comm %v", st.StepTimeSerial, st.MaxDeviceCompute+st.CommTime)
		}
		if st.AllReduceTime <= 0 {
			t.Error("multi-device step must account all-reduce time")
		}
	}

	// Exactness: the trajectory must not depend on the interconnect model.
	nv := gpusim.DefaultConfig()
	nv.Interconnect = gpusim.NVLinkInterconnect()
	gn, err := NewGroup(4, DefaultShards, nv, true, h.factory())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		b := h.batch(t, i, 60)
		loss, err := gn.TrainBatch(b, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		if loss != losses[i] {
			t.Errorf("batch %d: NVLink loss %v != PCIe-ring loss %v", i, loss, losses[i])
		}
		b.Release()
	}
	nvSt := gn.LastStats()
	if nvSt.AllReduceTime >= stats[2].AllReduceTime {
		t.Errorf("NVLink all-reduce %v should beat the PCIe ring's %v", nvSt.AllReduceTime, stats[2].AllReduceTime)
	}
	if nvSt.OverlapEfficiency < stats[2].OverlapEfficiency-1e-9 && nvSt.ScatterTime > 0 && nvSt.AllReduceTime > nvSt.ScatterTime {
		t.Errorf("uncontended NVLink overlap %v should not trail the PCIe ring's %v",
			nvSt.OverlapEfficiency, stats[2].OverlapEfficiency)
	}
}

// subBatchEqual deep-compares the observable fields of two sub-batches.
func subBatchEqual(t *testing.T, tag string, a, b *SubBatch) {
	t.Helper()
	if a.Shard != b.Shard || a.Edges != b.Edges || a.HostBytes != b.HostBytes {
		t.Fatalf("%s: shard scalar mismatch (%d/%d, %d/%d, %d/%d)",
			tag, a.Shard, b.Shard, a.Edges, b.Edges, a.HostBytes, b.HostBytes)
	}
	vids := func(name string, x, y []int32) {
		if len(x) != len(y) {
			t.Fatalf("%s: %s length %d != %d", tag, name, len(x), len(y))
		}
		for i := range x {
			if x[i] != y[i] {
				t.Fatalf("%s: %s[%d] %d != %d", tag, name, i, x[i], y[i])
			}
		}
	}
	vids("dsts", a.Dsts, b.Dsts)
	vids("xrows", a.XRows, b.XRows)
	vids("labels", a.Labels, b.Labels)
	if len(a.Layers) != len(b.Layers) {
		t.Fatalf("%s: layer count %d != %d", tag, len(a.Layers), len(b.Layers))
	}
	for li := range a.Layers {
		la, lb := a.Layers[li], b.Layers[li]
		if (la.CSR == nil) != (lb.CSR == nil) || (la.CSC == nil) != (lb.CSC == nil) || (la.COO == nil) != (lb.COO == nil) {
			t.Fatalf("%s: layer %d format mismatch", tag, li)
		}
		if la.CSR != nil {
			vids("csr.ptr", la.CSR.Ptr, lb.CSR.Ptr)
			vids("csr.srcs", la.CSR.Srcs, lb.CSR.Srcs)
		}
		if la.CSC != nil {
			vids("csc.ptr", la.CSC.Ptr, lb.CSC.Ptr)
			vids("csc.dsts", la.CSC.Dsts, lb.CSC.Dsts)
		}
		if la.COO != nil {
			vids("coo.src", la.COO.Src, lb.COO.Src)
			vids("coo.dst", la.COO.Dst, lb.COO.Dst)
		}
	}
}

// TestPartitionBatchReuseBitwise: rebuilding a recycled plan in place over
// a different batch must produce exactly the partition a fresh flat
// PartitionBatchNodesReuse computes — shape-derived reuse, not
// shape-dependent drift.
func TestPartitionBatchReuseBitwise(t *testing.T) {
	for _, format := range []prep.Format{prep.FormatCSRCSC, prep.FormatCOO} {
		h := newGroupHarness(t, "gcn", format)
		bA := h.batch(t, 0, 70)
		bB := h.batch(t, 1, 55) // different shape than A
		defer bA.Release()
		defer bB.Release()

		recycled, err := PartitionBatchNodesReuse(bA, DefaultShards, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		recycled.Recycle()
		reused, err := PartitionBatchNodesReuse(bB, DefaultShards, 1, recycled)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := PartitionBatchNodesReuse(bB, DefaultShards, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if reused != recycled {
			t.Fatal("PartitionBatchNodesReuse must rebuild the recycled plan in place")
		}
		if reused.Shards != fresh.Shards || reused.Imbalance != fresh.Imbalance {
			t.Fatalf("plan scalars differ: %d/%f vs %d/%f",
				reused.Shards, reused.Imbalance, fresh.Shards, fresh.Imbalance)
		}
		for s := range fresh.Subs {
			subBatchEqual(t, format.String(), &reused.Subs[s], &fresh.Subs[s])
		}
	}
}
