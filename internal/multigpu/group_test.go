package multigpu

import (
	"runtime"
	"testing"

	"graphtensor/internal/core"
	"graphtensor/internal/datasets"
	"graphtensor/internal/dkp"
	"graphtensor/internal/gpusim"
	"graphtensor/internal/graph"
	"graphtensor/internal/kernels"
	"graphtensor/internal/models"
	"graphtensor/internal/prep"
	"graphtensor/internal/sampling"
	"graphtensor/internal/tensor"
)

// groupHarness bundles a dataset, a deterministic batch source and a model
// factory so every device-count run sees identical inputs.
type groupHarness struct {
	ds      *datasets.Dataset
	staging *gpusim.Device // plays the host staging side of prep
	params  models.Params
	model   string
	format  prep.Format
}

func newGroupHarness(t *testing.T, model string, format prep.Format) *groupHarness {
	t.Helper()
	ds, err := datasets.Generate("products", datasets.TestScale())
	if err != nil {
		t.Fatal(err)
	}
	return &groupHarness{
		ds:      ds,
		staging: gpusim.NewDevice(gpusim.DefaultConfig()),
		model:   model,
		format:  format,
		params: models.Params{
			InDim:  ds.FeatureDim,
			Hidden: 8,
			OutDim: 8,
			Layers: 2,
			Seed:   1,
			Strategy: func() kernels.Strategy {
				if format == prep.FormatCOO {
					return kernels.GraphApproach{}
				}
				return kernels.NAPA{}
			}(),
		},
	}
}

func (h *groupHarness) factory() func() (*core.Model, error) {
	return func() (*core.Model, error) { return models.ByName(h.model, h.params) }
}

// batch prepares batch i of a deterministic schedule.
func (h *groupHarness) batch(t *testing.T, i int, size int) *prep.Batch {
	t.Helper()
	cfg := sampling.DefaultConfig()
	cfg.Seed = uint64(100 + i)
	sampler := sampling.New(h.ds.Graph, cfg)
	b, err := prep.Serial(sampler, h.ds.Features, h.ds.Labels, h.staging,
		h.ds.BatchDsts(size, uint64(i+1)), prep.Config{Format: h.format, Pinned: true})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// trainRun trains `batches` batches on an nDev-device group and returns the
// losses and replica-0 weights.
func (h *groupHarness) trainRun(t *testing.T, nDev, batches, size int) ([]float64, []float32) {
	t.Helper()
	g, err := NewGroup(nDev, DefaultShards, gpusim.DefaultConfig(), true, h.factory())
	if err != nil {
		t.Fatal(err)
	}
	var losses []float64
	for i := 0; i < batches; i++ {
		b := h.batch(t, i, size)
		loss, err := g.TrainBatch(b, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		losses = append(losses, loss)
		b.Release()
		for gi, d := range g.Devices() {
			if m := d.Dev.MemInUse(); m != 0 {
				t.Fatalf("nDev=%d batch %d: device %d MemInUse %d, want 0 between batches", nDev, i, gi, m)
			}
		}
	}
	// Every replica must hold identical weights after training.
	ref := g.Replica(0)
	for i := 1; i < nDev; i++ {
		if !SameWeights(ref, g.Replica(i)) {
			t.Fatalf("nDev=%d: replica %d diverged from replica 0", nDev, i)
		}
	}
	var w []float32
	for _, l := range ref.Layers {
		w = append(w, l.W.Data...)
		w = append(w, l.B...)
	}
	return losses, w
}

// TestGroupTrajectoryBitwiseAcrossDeviceCounts is the core guarantee of the
// data-parallel engine: the loss and weight trajectory is bitwise identical
// at any device count, because the gradient-shard partition and the
// all-reduce fold order are fixed by the batch shape alone.
func TestGroupTrajectoryBitwiseAcrossDeviceCounts(t *testing.T) {
	h := newGroupHarness(t, "gcn", prep.FormatCSRCSC)
	refLoss, refW := h.trainRun(t, 1, 4, 60)
	for _, nDev := range []int{2, 4, 8} {
		losses, w := h.trainRun(t, nDev, 4, 60)
		for i := range refLoss {
			if losses[i] != refLoss[i] {
				t.Errorf("nDev=%d batch %d: loss %v != 1-device %v", nDev, i, losses[i], refLoss[i])
			}
		}
		for i := range refW {
			if w[i] != refW[i] {
				t.Fatalf("nDev=%d: weight[%d] %v != 1-device %v", nDev, i, w[i], refW[i])
			}
		}
	}
}

// TestGroupTrajectoryBitwiseAcrossWorkers pins the trajectory against the
// worker pool: GOMAXPROCS must not change a single bit.
func TestGroupTrajectoryBitwiseAcrossWorkers(t *testing.T) {
	h := newGroupHarness(t, "ngcf", prep.FormatCSRCSC)
	prev := runtime.GOMAXPROCS(1)
	serialLoss, serialW := h.trainRun(t, 4, 3, 60)
	runtime.GOMAXPROCS(8)
	parLoss, parW := h.trainRun(t, 4, 3, 60)
	runtime.GOMAXPROCS(prev)
	for i := range serialLoss {
		if serialLoss[i] != parLoss[i] {
			t.Errorf("batch %d: loss %v (1 worker) != %v (8 workers)", i, serialLoss[i], parLoss[i])
		}
	}
	for i := range serialW {
		if serialW[i] != parW[i] {
			t.Fatalf("weight[%d] differs across GOMAXPROCS", i)
		}
	}
}

// newPolicyHarness builds a harness with the placement policy live: a
// heavy-feature dataset (gowalla at test scale keeps ~68-wide embeddings)
// and a narrow hidden width, so the fitted profile flips at least one
// layer of at least one shard shape to combination-first.
func newPolicyHarness(t *testing.T) *groupHarness {
	t.Helper()
	ds, err := datasets.Generate("gowalla", datasets.TestScale())
	if err != nil {
		t.Fatal(err)
	}
	return &groupHarness{
		ds:      ds,
		staging: gpusim.NewDevice(gpusim.DefaultConfig()),
		model:   "gcn",
		format:  prep.FormatCSRCSC,
		params: models.Params{
			InDim:     ds.FeatureDim,
			Hidden:    4,
			OutDim:    4,
			Layers:    2,
			Seed:      1,
			Strategy:  kernels.NAPA{},
			EnableDKP: true,
			Policy:    dkp.NewPolicy(dkp.ProfileFor(gpusim.DefaultConfig())),
		},
	}
}

// trainRunPlacements is trainRun plus the last batch's per-layer placement
// counts (copied out of the group-owned backing array).
func (h *groupHarness) trainRunPlacements(t *testing.T, nDev, batches, size int) ([]float64, []float32, []PlacementCount) {
	t.Helper()
	g, err := NewGroup(nDev, DefaultShards, gpusim.DefaultConfig(), true, h.factory())
	if err != nil {
		t.Fatal(err)
	}
	var losses []float64
	for i := 0; i < batches; i++ {
		b := h.batch(t, i, size)
		loss, err := g.TrainBatch(b, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		losses = append(losses, loss)
		b.Release()
	}
	ref := g.Replica(0)
	for i := 1; i < nDev; i++ {
		if !SameWeights(ref, g.Replica(i)) {
			t.Fatalf("nDev=%d: replica %d diverged from replica 0", nDev, i)
		}
	}
	var w []float32
	for _, l := range ref.Layers {
		w = append(w, l.W.Data...)
		w = append(w, l.B...)
	}
	pl := append([]PlacementCount(nil), g.LastStats().Placements...)
	return losses, w, pl
}

// TestGroupPolicyPlacementTrajectory unpins the data-parallel engine: with
// the fitted placement policy live (Dynamic-GT in a group), the loss and
// weight trajectory must stay bitwise identical at 1/2/4/8 devices and
// across GOMAXPROCS — the gradient-shard partition is a pure function of
// the batch shape, so every shard shape (and hence every policy decision)
// is device-count-independent. The per-layer placement counts must agree
// across device counts too, and the run must actually exercise both
// placements: a policy that never chooses combination-first here would be
// a silently dead policy.
func TestGroupPolicyPlacementTrajectory(t *testing.T) {
	h := newPolicyHarness(t)
	refLoss, refW, refPl := h.trainRunPlacements(t, 1, 3, 60)
	var nAggr, nComb int
	for _, pc := range refPl {
		nAggr += pc.AggrFirst
		nComb += pc.CombFirst
	}
	if nComb == 0 {
		t.Fatalf("policy never chose combination-first over the shard shapes: %+v", refPl)
	}
	if nAggr == 0 {
		t.Fatalf("policy never chose aggregation-first over the shard shapes: %+v", refPl)
	}
	for _, nDev := range []int{2, 4, 8} {
		losses, w, pl := h.trainRunPlacements(t, nDev, 3, 60)
		for i := range refLoss {
			if losses[i] != refLoss[i] {
				t.Errorf("nDev=%d batch %d: loss %v != 1-device %v", nDev, i, losses[i], refLoss[i])
			}
		}
		for i := range refW {
			if w[i] != refW[i] {
				t.Fatalf("nDev=%d: weight[%d] %v != 1-device %v (policy broke device-count invariance)", nDev, i, w[i], refW[i])
			}
		}
		for li := range refPl {
			if pl[li] != refPl[li] {
				t.Errorf("nDev=%d layer %d: placement counts %+v != 1-device %+v", nDev, li, pl[li], refPl[li])
			}
		}
	}
	// GOMAXPROCS must not perturb a policy-live trajectory either.
	prev := runtime.GOMAXPROCS(1)
	oneLoss, oneW, _ := h.trainRunPlacements(t, 4, 3, 60)
	runtime.GOMAXPROCS(8)
	parLoss, parW, _ := h.trainRunPlacements(t, 4, 3, 60)
	runtime.GOMAXPROCS(prev)
	for i := range oneLoss {
		if oneLoss[i] != parLoss[i] {
			t.Errorf("batch %d: policy-live loss %v (1 worker) != %v (8 workers)", i, oneLoss[i], parLoss[i])
		}
	}
	for i := range oneW {
		if oneW[i] != parW[i] {
			t.Fatalf("policy-live weight[%d] differs across GOMAXPROCS", i)
		}
	}
}

// TestGroupCOOFormat trains the Graph-approach (COO shards, on-device
// translation) through the group: the engine is format-agnostic.
func TestGroupCOOFormat(t *testing.T) {
	h := newGroupHarness(t, "gcn", prep.FormatCOO)
	refLoss, refW := h.trainRun(t, 1, 2, 50)
	losses, w := h.trainRun(t, 4, 2, 50)
	for i := range refLoss {
		if losses[i] != refLoss[i] {
			t.Errorf("batch %d: COO loss %v != 1-device %v", i, losses[i], refLoss[i])
		}
	}
	for i := range refW {
		if w[i] != refW[i] {
			t.Fatalf("COO weight[%d] differs across device counts", i)
		}
	}
}

// TestGroupBatchSmallerThanShards exercises empty gradient shards (batch of
// 5 dsts under 8 shards): they must contribute exact zeros, not stale
// partials.
func TestGroupBatchSmallerThanShards(t *testing.T) {
	h := newGroupHarness(t, "gcn", prep.FormatCSRCSC)
	refLoss, _ := h.trainRun(t, 1, 3, 5)
	losses, _ := h.trainRun(t, 4, 3, 5)
	for i := range refLoss {
		if losses[i] != refLoss[i] {
			t.Errorf("tiny batch %d: loss %v != 1-device %v", i, losses[i], refLoss[i])
		}
	}
}

// TestPartitionBatchCoversBatch checks the decomposition invariants: shard
// dsts partition the batch's dst set, per-layer local edges sum to the
// parent layer's edges, and local graphs chain (layer li src space ==
// layer li-1 dst count).
func TestPartitionBatchCoversBatch(t *testing.T) {
	h := newGroupHarness(t, "gcn", prep.FormatCSRCSC)
	b := h.batch(t, 0, 80)
	defer b.Release()
	plan, err := PartitionBatchNodesReuse(b, DefaultShards, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Imbalance < 1.0 {
		t.Errorf("imbalance %f below 1.0", plan.Imbalance)
	}
	seen := map[int]int{}
	edges := make([]int, len(b.Layers))
	for _, sub := range plan.Subs {
		for _, d := range sub.Dsts {
			seen[int(d)]++
		}
		for li, l := range sub.Layers {
			edges[li] += l.CSR.NumEdges()
			if l.CSC == nil {
				t.Fatal("CSR+CSC parent must produce CSC shards")
			}
			if li > 0 && l.CSR.NumSrc != sub.Layers[li-1].CSR.NumDst {
				t.Fatalf("shard %d: layer %d src space %d != layer %d dsts %d",
					sub.Shard, li, l.CSR.NumSrc, li-1, sub.Layers[li-1].CSR.NumDst)
			}
		}
		if len(sub.XRows) != sub.Layers[0].CSR.NumSrc {
			t.Fatalf("shard %d: %d X rows for %d layer-1 srcs", sub.Shard, len(sub.XRows), sub.Layers[0].CSR.NumSrc)
		}
	}
	for d := 0; d < len(b.Labels); d++ {
		if seen[d] != 1 {
			t.Errorf("batch dst %d owned by %d shards, want exactly 1", d, seen[d])
		}
	}
	// The final layer's edges partition exactly; lower layers replicate
	// halo rows across shards, so their shard sum can only grow.
	last := len(b.Layers) - 1
	if edges[last] != b.Layers[last].CSR.NumEdges() {
		t.Errorf("final layer: shard edges sum %d != parent %d", edges[last], b.Layers[last].CSR.NumEdges())
	}
	for li := 0; li < last; li++ {
		if edges[li] < b.Layers[li].CSR.NumEdges() {
			t.Errorf("layer %d: shard edges sum %d below parent %d", li, edges[li], b.Layers[li].CSR.NumEdges())
		}
	}
}

// TestGroupCommAccounting: multi-device steps must report all-reduce
// traffic; a single device pays none.
func TestGroupCommAccounting(t *testing.T) {
	h := newGroupHarness(t, "gcn", prep.FormatCSRCSC)
	run := func(nDev int) GroupStats {
		g, err := NewGroup(nDev, DefaultShards, gpusim.DefaultConfig(), true, h.factory())
		if err != nil {
			t.Fatal(err)
		}
		b := h.batch(t, 0, 60)
		defer b.Release()
		if _, err := g.TrainBatch(b, 0.05); err != nil {
			t.Fatal(err)
		}
		return g.LastStats()
	}
	one, four := run(1), run(4)
	// Total link traffic grows with devices: the all-reduce plus the halo
	// rows replicated into several devices' sub-batches.
	if four.CommBytes <= one.CommBytes {
		t.Errorf("4-device comm bytes %d should exceed 1-device %d", four.CommBytes, one.CommBytes)
	}
	if four.CommTime <= 0 || one.CommTime <= 0 {
		t.Error("comm time must be accounted (input scatter + all-reduce)")
	}
	if got := four.MaxDeviceCompute + four.CommTime; four.StepTime != got {
		t.Errorf("StepTime %v != compute+comm %v", four.StepTime, got)
	}
}

// TestMoreGPUsLowerPerDeviceWork: spreading the fixed shard set over more
// devices lowers the busiest device's FLOPs and modeled compute time at
// every step of the 1/2/4/8 sweep.
func TestMoreGPUsLowerPerDeviceWork(t *testing.T) {
	h := newGroupHarness(t, "gcn", prep.FormatCSRCSC)
	var prev GroupStats
	for i, nDev := range []int{1, 2, 4, 8} {
		g, err := NewGroup(nDev, DefaultShards, gpusim.DefaultConfig(), true, h.factory())
		if err != nil {
			t.Fatal(err)
		}
		b := h.batch(t, 0, 60)
		if _, err := g.TrainBatch(b, 0.05); err != nil {
			t.Fatal(err)
		}
		b.Release()
		st := g.LastStats()
		if i > 0 && st.PeakDeviceFLOPs >= prev.PeakDeviceFLOPs {
			t.Errorf("%d devices: peak device FLOPs %d, not below %d at %d", nDev, st.PeakDeviceFLOPs, prev.PeakDeviceFLOPs, nDev/2)
		}
		if i > 0 && st.MaxDeviceCompute >= prev.MaxDeviceCompute {
			t.Errorf("%d devices: busiest-device compute %v, not below %v at %d", nDev, st.MaxDeviceCompute, prev.MaxDeviceCompute, nDev/2)
		}
		prev = st
	}
}

// TestGroupRejectsMoreDevicesThanShards: idle devices would be silent
// waste; the constructor refuses them.
func TestGroupRejectsMoreDevicesThanShards(t *testing.T) {
	h := newGroupHarness(t, "gcn", prep.FormatCSRCSC)
	if _, err := NewGroup(9, 8, gpusim.DefaultConfig(), true, h.factory()); err == nil {
		t.Fatal("expected error for 9 devices over 8 shards")
	}
}

// randomBCSR builds a bipartite CSR whose dsts carry 1..maxDeg seeded
// random in-edges each, a skewed shape for the partitioner without a
// dataset behind it.
func randomBCSR(seed int64, nDst, nSrc, maxDeg int) *graph.BCSR {
	r := uint64(seed)*2862933555777941757 + 7
	next := func(mod int) int {
		r = r*6364136223846793005 + 1442695040888963407
		return int((r >> 33) % uint64(mod))
	}
	coo := &graph.BCOO{NumDst: nDst, NumSrc: nSrc}
	for d := 0; d < nDst; d++ {
		deg := 1 + next(maxDeg)
		for i := 0; i < deg; i++ {
			coo.Src = append(coo.Src, graph.VID(next(nSrc)))
			coo.Dst = append(coo.Dst, graph.VID(d))
		}
	}
	csr, _ := graph.BCOOToBCSR(coo)
	return csr
}

// TestEveryDstAssignedOnce: the LPT partitioner hands every dst to exactly
// one shard with each shard's list ascending, for shard counts below and
// above the dst count (surplus shards stay empty).
func TestEveryDstAssignedOnce(t *testing.T) {
	csr := randomBCSR(2, 60, 90, 6)
	for _, n := range []int{1, 3, 8, 70} {
		p := &BatchPlan{Subs: make([]SubBatch, n)}
		p.assignByEdges(csr, n)
		seen := make([]int, csr.NumDst)
		for s, sub := range p.Subs {
			for i, d := range sub.Dsts {
				seen[d]++
				if i > 0 && sub.Dsts[i-1] >= d {
					t.Fatalf("n=%d: shard %d dst list not ascending at %d", n, s, i)
				}
			}
		}
		for d, c := range seen {
			if c != 1 {
				t.Errorf("n=%d: dst %d assigned %d times", n, d, c)
			}
		}
	}
}

// TestBalanceDistributesEdges: the shards' edge loads sum to the graph's
// edges and obey the greedy LPT bound — the heaviest shard took its last
// dst while at or below the mean, so its load is at most the mean plus the
// largest degree — and Imbalance is max/mean of those loads.
func TestBalanceDistributesEdges(t *testing.T) {
	for seed, n := range []int{2, 4, 8} {
		csr := randomBCSR(int64(seed+1), 100, 150, 8)
		p := &BatchPlan{Subs: make([]SubBatch, n)}
		p.assignByEdges(csr, n)
		total, maxLoad, maxDeg := 0, 0, 0
		for _, sub := range p.Subs {
			load := 0
			for _, d := range sub.Dsts {
				deg := csr.Degree(d)
				load += deg
				if deg > maxDeg {
					maxDeg = deg
				}
			}
			total += load
			if load > maxLoad {
				maxLoad = load
			}
		}
		if total != csr.NumEdges() {
			t.Errorf("n=%d: partitioned edges %d != total %d", n, total, csr.NumEdges())
		}
		mean := float64(total) / float64(n)
		if float64(maxLoad) > mean+float64(maxDeg) {
			t.Errorf("n=%d: shard load %d exceeds LPT bound %.1f", n, maxLoad, mean+float64(maxDeg))
		}
		if want := float64(maxLoad) / mean; p.Imbalance != want {
			t.Errorf("n=%d: Imbalance %f != recomputed %f", n, p.Imbalance, want)
		}
	}
}

// TestMultiGPUForwardMatchesSingle: the logits each gradient shard computes
// on its localized sub-batch equal, bit for bit, the rows the whole batch
// computes unsharded on one device — localization (compact VIDs, halo
// chains, X row maps) must not change what any dst sees.
//
// It covers the unweighted GCN only. Edge-weighted modes (NGCF) read a
// dst's own embedding at row d of the layer input, which assumes dst d is
// also src d; localizeInto numbers local srcs in first-touch order, so a
// shard's NGCF edge weights read another vertex's row and the sharded
// logits differ from the unsharded ones. The ROADMAP item "Shard
// localization must keep the dsts as the src prefix" tracks the fix, which
// changes every group NGCF trajectory and must extend this test to "ngcf".
func TestMultiGPUForwardMatchesSingle(t *testing.T) {
	for _, model := range []string{"gcn"} {
		h := newGroupHarness(t, model, prep.FormatCSRCSC)
		m, err := h.factory()()
		if err != nil {
			t.Fatal(err)
		}
		infer := func(layers []prep.LayerData, x *tensor.Matrix) *tensor.Matrix {
			dev := gpusim.NewDevice(gpusim.DefaultConfig())
			xd, err := kernels.WrapDeviceMatrix(dev, x, "x")
			if err != nil {
				t.Fatal(err)
			}
			gs := make([]*kernels.Graphs, len(layers))
			for li, l := range layers {
				gs[li] = &kernels.Graphs{COO: l.COO, CSR: l.CSR, CSC: l.CSC}
			}
			out, err := m.Infer(kernels.NewCtx(dev), &core.Input{Graphs: gs, X: xd})
			if err != nil {
				t.Fatal(err)
			}
			logits := out.M.Clone()
			out.Free()
			xd.Free()
			return logits
		}
		b := h.batch(t, 0, 60)
		want := infer(b.Layers, b.Embed.Data.Clone())
		plan, err := PartitionBatchNodesReuse(b, DefaultShards, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, sub := range plan.Subs {
			if len(sub.Dsts) == 0 {
				continue
			}
			x := tensor.New(len(sub.XRows), b.Embed.Dim)
			for i, v := range sub.XRows {
				copy(x.Row(i), b.Embed.Row(v))
			}
			got := infer(sub.Layers, x)
			for i, d := range sub.Dsts {
				row, ref := got.Row(i), want.Row(int(d))
				for j := range row {
					if row[j] != ref[j] {
						t.Fatalf("%s shard %d: dst %d logit %d = %v, unsharded %v", model, sub.Shard, d, j, row[j], ref[j])
					}
				}
			}
		}
		b.Release()
	}
}
