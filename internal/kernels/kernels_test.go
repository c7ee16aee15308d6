package kernels

import (
	"testing"
	"testing/quick"

	"graphtensor/internal/gpusim"
	"graphtensor/internal/graph"
	"graphtensor/internal/tensor"
)

// refForward is the obviously-correct reference: out[d] = f over neighbors
// of h(x_s, g(x_s, x_d)).
func refForward(csr *graph.BCSR, x *tensor.Matrix, m Modes) *tensor.Matrix {
	dim := x.Cols
	out := tensor.New(csr.NumDst, dim)
	w := make([]float32, dim)
	msg := make([]float32, dim)
	for d := 0; d < csr.NumDst; d++ {
		nbrs := csr.Neighbors(graph.VID(d))
		scale := float32(1)
		if m.F == AggrMean && len(nbrs) > 0 {
			scale = 1 / float32(len(nbrs))
		}
		orow := out.Row(d)
		for _, s := range nbrs {
			var wv []float32
			if m.HasEdgeWeight() {
				m.edgeWeight(x.Row(int(s)), x.Row(d), w)
				wv = w[:m.WeightCols(dim)]
			}
			m.message(x.Row(int(s)), wv, msg)
			for j := range orow {
				orow[j] += msg[j] * scale
			}
		}
	}
	return out
}

// refBackward computes dX numerically-exactly by accumulating the analytic
// per-edge gradients (same math as msgBackward*, but in one serial loop).
func refBackward(csr *graph.BCSR, x, dOut *tensor.Matrix, m Modes) *tensor.Matrix {
	dim := x.Cols
	dx := tensor.New(csr.NumSrc, dim)
	dMsg := make([]float32, dim)
	for d := 0; d < csr.NumDst; d++ {
		nbrs := csr.Neighbors(graph.VID(d))
		scale := float32(1)
		if m.F == AggrMean && len(nbrs) > 0 {
			scale = 1 / float32(len(nbrs))
		}
		dORow := dOut.Row(d)
		for _, s := range nbrs {
			for j := range dMsg {
				dMsg[j] = dORow[j] * scale
			}
			m.msgBackwardSrc(x.Row(int(s)), x.Row(d), dMsg, dx.Row(int(s)))
			m.msgBackwardDst(x.Row(int(s)), x.Row(d), dMsg, dx.Row(d))
		}
	}
	return dx
}

// randomBipartite builds a random sampled-subgraph-shaped BCSR: dsts are a
// prefix of the src space, as the sampler guarantees.
func randomBipartite(nDst, nSrc, fanout int, rng *tensor.RNG) *graph.BCSR {
	coo := &graph.BCOO{NumDst: nDst, NumSrc: nSrc}
	for d := 0; d < nDst; d++ {
		deg := 1 + rng.Intn(fanout)
		for i := 0; i < deg; i++ {
			coo.Src = append(coo.Src, graph.VID(rng.Intn(nSrc)))
			coo.Dst = append(coo.Dst, graph.VID(d))
		}
	}
	csr, _ := graph.BCOOToBCSR(coo)
	return csr
}

func testDevice() *gpusim.Device {
	cfg := gpusim.DefaultConfig()
	cfg.NumSMs = 8 // keep simulated SM fan-out small in tests
	return gpusim.NewDevice(cfg)
}

var allStrategies = []Strategy{NAPA{}, GraphApproach{}, DLApproach{}, Advisor{GroupSize: 4}}

var allModes = []Modes{GCNModes(), NGCFModes(), AttentionModes()}

func TestForwardMatchesReference(t *testing.T) {
	rng := tensor.NewRNG(7)
	for _, m := range allModes {
		csr := randomBipartite(23, 41, 5, rng)
		x := tensor.Random(41, 9, 1, rng)
		want := refForward(csr, x, m)
		for _, s := range allStrategies {
			dev := testDevice()
			ctx := NewCtx(dev)
			xd, err := WrapDeviceMatrix(dev, x.Clone(), "x")
			if err != nil {
				t.Fatal(err)
			}
			g := &Graphs{CSR: csr}
			got, err := s.Forward(ctx, g, xd, m)
			if err != nil {
				t.Fatalf("%s/%v: %v", s.Name(), m, err)
			}
			if diff := got.M.MaxAbsDiff(want); diff > 2e-5 {
				t.Errorf("%s modes f=%v g=%v h=%v: forward diff %g", s.Name(), m.F, m.G, m.H, diff)
			}
		}
	}
}

func TestBackwardMatchesReference(t *testing.T) {
	rng := tensor.NewRNG(11)
	for _, m := range allModes {
		csr := randomBipartite(17, 31, 4, rng)
		x := tensor.Random(31, 7, 1, rng)
		dOut := tensor.Random(17, 7, 1, rng)
		want := refBackward(csr, x, dOut, m)
		for _, s := range allStrategies {
			dev := testDevice()
			ctx := NewCtx(dev)
			xd, _ := WrapDeviceMatrix(dev, x.Clone(), "x")
			dOutD, _ := WrapDeviceMatrix(dev, dOut.Clone(), "dout")
			g := &Graphs{CSR: csr}
			got, err := s.Backward(ctx, g, xd, dOutD, m)
			if err != nil {
				t.Fatalf("%s: %v", s.Name(), err)
			}
			if diff := got.M.MaxAbsDiff(want); diff > 2e-5 {
				t.Errorf("%s modes f=%v g=%v h=%v: backward diff %g", s.Name(), m.F, m.G, m.H, diff)
			}
		}
	}
}

func TestForwardFromCOOOnly(t *testing.T) {
	// Strategies that need CSR must translate from COO and still agree.
	rng := tensor.NewRNG(13)
	csr := randomBipartite(12, 20, 3, rng)
	coo := BCSRToBCOOShuffled(csr, rng)
	x := tensor.Random(20, 5, 1, rng)
	m := NGCFModes()
	want := refForward(csr, x, m)
	for _, s := range allStrategies {
		dev := testDevice()
		ctx := NewCtx(dev)
		xd, _ := WrapDeviceMatrix(dev, x.Clone(), "x")
		g := &Graphs{COO: &graph.BCOO{
			NumDst: coo.NumDst, NumSrc: coo.NumSrc,
			Src: append([]graph.VID(nil), coo.Src...),
			Dst: append([]graph.VID(nil), coo.Dst...),
		}}
		got, err := s.Forward(ctx, g, xd, m)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if diff := got.M.MaxAbsDiff(want); diff > 2e-5 {
			t.Errorf("%s from COO: forward diff %g", s.Name(), diff)
		}
		if s.Name() == "Graph-approach" && ctx.Phases.Get(PhaseTranslation) == 0 {
			t.Errorf("Graph-approach from COO should charge format translation")
		}
	}
}

// BCSRToBCOOShuffled expands to COO in a scrambled edge order, as a real
// edge-centric loader would produce.
func BCSRToBCOOShuffled(csr *graph.BCSR, rng *tensor.RNG) *graph.BCOO {
	coo := graph.BCSRToBCOO(csr)
	for i := len(coo.Src) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		coo.Src[i], coo.Src[j] = coo.Src[j], coo.Src[i]
		coo.Dst[i], coo.Dst[j] = coo.Dst[j], coo.Dst[i]
	}
	return coo
}

func TestDLApproachBloatsMemory(t *testing.T) {
	rng := tensor.NewRNG(17)
	csr := randomBipartite(50, 80, 6, rng)
	x := tensor.Random(80, 16, 1, rng)
	m := NGCFModes()

	peak := func(s Strategy) int64 {
		dev := testDevice()
		ctx := NewCtx(dev)
		xd, _ := WrapDeviceMatrix(dev, x.Clone(), "x")
		dev.ResetPeak()
		base := dev.MemInUse()
		if _, err := s.Forward(ctx, &Graphs{CSR: csr}, xd, m); err != nil {
			t.Fatal(err)
		}
		return dev.MemPeak() - base
	}
	dl := peak(DLApproach{})
	napa := peak(NAPA{})
	if dl <= napa {
		t.Errorf("DL-approach peak %d should exceed NAPA peak %d (memory bloat)", dl, napa)
	}
}

func TestGraphApproachBloatsCache(t *testing.T) {
	rng := tensor.NewRNG(19)
	csr := randomBipartite(60, 100, 6, rng)
	x := tensor.Random(100, 32, 1, rng)
	m := NGCFModes()

	cacheBytes := func(s Strategy) int64 {
		dev := testDevice()
		ctx := NewCtx(dev)
		xd, _ := WrapDeviceMatrix(dev, x.Clone(), "x")
		if _, err := s.Forward(ctx, &Graphs{CSR: csr}, xd, m); err != nil {
			t.Fatal(err)
		}
		return dev.Snapshot().CacheBytes
	}
	ga := cacheBytes(GraphApproach{})
	napa := cacheBytes(NAPA{})
	if ga <= napa {
		t.Errorf("Graph-approach cache bytes %d should exceed NAPA %d (cache bloat)", ga, napa)
	}
}

// refMatMul is the naive triple loop a×b: the host oracle for the device
// dense kernels.
func refMatMul(a, b *tensor.Matrix) *tensor.Matrix {
	out := tensor.New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for k := 0; k < a.Cols; k++ {
			av := a.At(i, k)
			for j := 0; j < b.Cols; j++ {
				out.Data[i*out.Cols+j] += av * b.At(k, j)
			}
		}
	}
	return out
}

// refTranspose returns mᵀ.
func refTranspose(m *tensor.Matrix) *tensor.Matrix {
	out := tensor.New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

func TestLinearMatchesMatMul(t *testing.T) {
	rng := tensor.NewRNG(23)
	x := tensor.Random(37, 13, 1, rng)
	w := tensor.Random(13, 8, 1, rng)
	want := refMatMul(x, w)
	dev := testDevice()
	ctx := NewCtx(dev)
	xd, _ := WrapDeviceMatrix(dev, x.Clone(), "x")
	got, err := Linear(ctx, xd, w, "y")
	if err != nil {
		t.Fatal(err)
	}
	if diff := got.M.MaxAbsDiff(want); diff > 1e-5 {
		t.Errorf("Linear diff %g", diff)
	}
}

func TestLinearBackward(t *testing.T) {
	rng := tensor.NewRNG(29)
	x := tensor.Random(19, 11, 1, rng)
	w := tensor.Random(11, 6, 1, rng)
	dy := tensor.Random(19, 6, 1, rng)
	wantDX := refMatMul(dy, refTranspose(w)) // dY·Wᵀ
	wantDW := refMatMul(refTranspose(x), dy) // Xᵀ·dY

	dev := testDevice()
	ctx := NewCtx(dev)
	xd, _ := WrapDeviceMatrix(dev, x.Clone(), "x")
	dyd, _ := WrapDeviceMatrix(dev, dy.Clone(), "dy")
	dw := tensor.New(w.Rows, w.Cols)
	dx, err := LinearBackward(ctx, xd, dyd, w, dw, "dx")
	if err != nil {
		t.Fatal(err)
	}
	if diff := dx.M.MaxAbsDiff(wantDX); diff > 1e-4 {
		t.Errorf("dX diff %g", diff)
	}
	if diff := dw.MaxAbsDiff(wantDW); diff > 1e-4 {
		t.Errorf("dW diff %g", diff)
	}
}

func TestBiasReLURoundTrip(t *testing.T) {
	rng := tensor.NewRNG(31)
	x := tensor.Random(9, 5, 1, rng)
	bias := []float32{0.1, -0.2, 0.3, -0.4, 0.5}
	dev := testDevice()
	ctx := NewCtx(dev)
	xd, _ := WrapDeviceMatrix(dev, x.Clone(), "x")
	pre, err := BiasReLU(ctx, xd, bias)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < x.Rows; i++ {
		for j := 0; j < x.Cols; j++ {
			wantPre := x.At(i, j) + bias[j]
			if pre.At(i, j) != wantPre {
				t.Fatalf("pre[%d][%d] = %g want %g", i, j, pre.At(i, j), wantPre)
			}
			want := wantPre
			if want < 0 {
				want = 0
			}
			if xd.M.At(i, j) != want {
				t.Fatalf("relu[%d][%d] = %g want %g", i, j, xd.M.At(i, j), want)
			}
		}
	}

	// Backward: dY is masked by pre > 0 in place, and the bias gradient
	// accumulates the masked rows in ascending row order.
	dy := tensor.Random(9, 5, 1, rng)
	dyd, _ := WrapDeviceMatrix(dev, dy.Clone(), "dy")
	dBias := make([]float32, len(bias))
	if err := BiasReLUBackward(ctx, dyd, pre, dBias); err != nil {
		t.Fatal(err)
	}
	wantDB := make([]float32, len(bias))
	for i := 0; i < dy.Rows; i++ {
		for j := 0; j < dy.Cols; j++ {
			want := dy.At(i, j)
			if pre.At(i, j) <= 0 {
				want = 0
			}
			if dyd.M.At(i, j) != want {
				t.Fatalf("dpre[%d][%d] = %g want %g", i, j, dyd.M.At(i, j), want)
			}
			wantDB[j] += want
		}
	}
	for j := range wantDB {
		if dBias[j] != wantDB[j] {
			t.Fatalf("dBias[%d] = %g want %g", j, dBias[j], wantDB[j])
		}
	}
}

func TestModesValidate(t *testing.T) {
	bad := Modes{F: AggrMean, G: WeightDot, H: CombineAdd}
	if err := bad.Validate(); err == nil {
		t.Error("expected error for dot+add combination")
	}
	for _, m := range allModes {
		if err := m.Validate(); err != nil {
			t.Errorf("%v: %v", m, err)
		}
	}
}

// Property: strategies agree pairwise on random graphs (testing/quick over
// graph shape parameters).
func TestQuickStrategyEquivalence(t *testing.T) {
	f := func(seed uint64, nDstRaw, nSrcExtraRaw, fanoutRaw, dimRaw uint8) bool {
		nDst := 1 + int(nDstRaw)%30
		nSrc := nDst + int(nSrcExtraRaw)%30
		fanout := 1 + int(fanoutRaw)%6
		dim := 1 + int(dimRaw)%12
		rng := tensor.NewRNG(seed)
		csr := randomBipartite(nDst, nSrc, fanout, rng)
		x := tensor.Random(nSrc, dim, 1, rng)
		m := NGCFModes()
		want := refForward(csr, x, m)
		for _, s := range allStrategies {
			dev := testDevice()
			ctx := NewCtx(dev)
			xd, _ := WrapDeviceMatrix(dev, x.Clone(), "x")
			got, err := s.Forward(ctx, &Graphs{CSR: csr}, xd, m)
			if err != nil {
				return false
			}
			if got.M.MaxAbsDiff(want) > 1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
