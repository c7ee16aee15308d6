// Package frameworks assembles the end-to-end trainers the paper's
// evaluation compares (§VI): the baselines — DGL, PyG (single- and
// multi-threaded), GNNAdvisor, SALIENT — and the three GraphTensor builds
// — Base-GT (NAPA only), Dynamic-GT (NAPA + DKP) and Prepro-GT (NAPA +
// DKP + service-wide tensor scheduler). Each trainer binds a kernel
// scheduling strategy, an initial graph format, a sampling discipline and
// a preprocessing pipeline, per Table III:
//
//	framework    strategy        format   prep              pinned  DKP
//	DGL          Graph-approach  COO      serial, MT        no      no
//	PyG          DL-approach     CSR      serial, 1 thread  no      no
//	PyG-MT       DL-approach     CSR      serial, MT        no      no
//	GNNAdvisor   Advisor         CSR      serial, MT        no      no
//	SALIENT      DL-approach     CSR      serial, MT        yes     no
//	Base-GT      NAPA            CSR+CSC  serial, MT        yes     no
//	Dynamic-GT   NAPA            CSR+CSC  serial, MT        yes     yes
//	Prepro-GT    NAPA            CSR+CSC  pipelined         yes     yes
package frameworks

import (
	"fmt"
	"time"

	"graphtensor/internal/cache"
	"graphtensor/internal/core"
	"graphtensor/internal/datasets"
	"graphtensor/internal/dkp"
	"graphtensor/internal/fault"
	"graphtensor/internal/gpusim"
	"graphtensor/internal/graph"
	"graphtensor/internal/kernels"
	"graphtensor/internal/metrics"
	"graphtensor/internal/models"
	"graphtensor/internal/multigpu"
	"graphtensor/internal/pipeline"
	"graphtensor/internal/prep"
	"graphtensor/internal/sampling"
)

// Kind identifies a framework build.
type Kind int

const (
	// DGL is the Graph-approach representative.
	DGL Kind = iota
	// PyG is the DL-approach representative with single-threaded sampling.
	PyG
	// PyGMT is PyG modified for multi-threaded preprocessing (§VI-B).
	PyGMT
	// GNNAdvisor is the adaptive runtime baseline (kernel comparison only;
	// the original has no sampling-based preprocessing).
	GNNAdvisor
	// SALIENT is the fast-sampling/pipelining preprocessing baseline.
	SALIENT
	// BaseGT is GraphTensor with NAPA but no DKP.
	BaseGT
	// DynamicGT adds dynamic kernel placement.
	DynamicGT
	// PreproGT adds the service-wide tensor scheduler.
	PreproGT
)

// String names the framework as the figures label it.
func (k Kind) String() string {
	switch k {
	case DGL:
		return "DGL"
	case PyG:
		return "PyG"
	case PyGMT:
		return "PyG-MT"
	case GNNAdvisor:
		return "GNNAdvisor"
	case SALIENT:
		return "SALIENT"
	case BaseGT:
		return "Base-GT"
	case DynamicGT:
		return "Dynamic-GT"
	case PreproGT:
		return "Prepro-GT"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Kinds lists all framework builds in figure order.
func Kinds() []Kind {
	return []Kind{DGL, PyG, PyGMT, GNNAdvisor, SALIENT, BaseGT, DynamicGT, PreproGT}
}

// Options configures a trainer.
type Options struct {
	Model     string // "gcn", "ngcf", "graphsage", "gat"
	Hidden    int    // hidden dimension (paper: 64)
	Layers    int    // GNN depth (paper models: 2)
	BatchSize int    // dst vertices per batch (paper: 300)
	Fanout    int    // sampled neighbors per dst
	Seed      uint64
	Device    gpusim.Config
	// LearningRate for TrainBatch's SGD step.
	LearningRate float32
	// PrefetchDepth is how many batches ahead the prefetch ring prepares
	// for overlap-capable frameworks (<=0 defaults to 2). Ignored by the
	// serial baselines. Device footprint: up to depth+2 batches hold
	// device buffers at once (prepared-ahead + in-compute), plus one more
	// during a concurrent validation Prepare — size gpusim memory (or
	// lower the depth) accordingly.
	PrefetchDepth int
	// NumDevices selects the data-parallel engine: 0 (default) trains on
	// the classic single-device engine; >=1 trains through a
	// multigpu.DeviceGroup of that many devices. Every batch is carved into
	// GradShards shape-fixed gradient shards, so the loss/weight trajectory
	// is bitwise identical at any NumDevices in [1, GradShards] and any
	// GOMAXPROCS. DKP stays live under data parallelism: placements are a
	// pure function of the fitted profile and each shard's shape, so every
	// replica evaluating the same shard makes the same choice.
	NumDevices int
	// GradShards is the fixed gradient-shard count of the data-parallel
	// engine (0 derives it from the device class via dkp.Recommend).
	// Trajectories are comparable across device counts only for an
	// identical shard count.
	GradShards int
	// DevicesPerNode splits the device group into nodes of this size over
	// a hierarchical fabric (gpusim.HierarchicalInterconnect): NVLink-class
	// links inside a node, the modeled network between nodes, hierarchical
	// all-reduce and node-aware shard assignment. 0 (default) keeps the
	// flat single-node fabric from Options.Device. Node assignment steers
	// modeled scheduling and communication only — the trajectory stays
	// bitwise identical to the flat fabrics at the same GradShards.
	DevicesPerNode int
	// FaultPlan injects a deterministic fault schedule into the
	// data-parallel device group (nil = fault-free; ignored without
	// NumDevices). Faults are a pure function of (seed, step, device), so
	// chaos runs replay bitwise.
	FaultPlan *fault.Plan
}

// DefaultOptions mirrors the paper's experimental setup, scaled alongside
// the datasets.
func DefaultOptions() Options {
	return Options{
		Model:         "gcn",
		Hidden:        8, // paper's 64 divided by the feature scale (8)
		Layers:        2,
		BatchSize:     300,
		Fanout:        4,
		Seed:          1,
		Device:        gpusim.DefaultConfig(),
		LearningRate:  0.05,
		PrefetchDepth: 2,
	}
}

// Trainer is one framework build bound to a dataset.
type Trainer struct {
	Kind    Kind
	Opt     Options
	Dataset *datasets.Dataset
	Engine  *core.Engine
	Model   *core.Model

	strategy   kernels.Strategy
	format     prep.Format
	pinned     bool
	overlap    bool
	samplerCfg sampling.Config
	sampler    *sampling.Sampler
	sched      *pipeline.Scheduler
	group      *multigpu.DeviceGroup
	cache      *cache.Cache
	batchSeq   uint64
	// policy is the shared shape-keyed placement policy of DKP frameworks
	// (nil otherwise), fitted offline for the trainer's device class.
	policy *dkp.Policy

	// infer is the retained FWP-only dispatch state of InferBatch: the
	// layer-graph views and the input header are rebuilt in place per
	// served batch instead of reallocated.
	infer InferDispatch

	// slots is the trainer's persistent prefetch-slot rotation: every ring
	// the trainer builds draws from this free-list, so slot storage (arenas
	// + producer structure pools) survives across rings and epochs.
	slots chan *pipeline.Slot
}

// Group returns the data-parallel device group, or nil when the trainer
// runs the classic single-device engine (Options.NumDevices == 0).
func (t *Trainer) Group() *multigpu.DeviceGroup { return t.group }

// SamplerConfig returns the framework's sampling discipline — the serving
// engine builds its own host-only preprocessing scheduler from it.
func (t *Trainer) SamplerConfig() sampling.Config { return t.samplerCfg }

// Format returns the framework's on-device graph format.
func (t *Trainer) Format() prep.Format { return t.format }

// Pinned reports whether the framework stages transfers in page-locked
// buffers.
func (t *Trainer) Pinned() bool { return t.pinned }

// SetCache installs (or, with nil, removes) a PaGraph-style embedding cache
// on the trainer's preprocessing: resident vertices skip the modeled
// host→device transfer in the K/T tasks and the prepared batches record
// their hit/miss counts. Residency never changes batch contents. Must not
// race an in-flight Prepare.
func (t *Trainer) SetCache(c *cache.Cache) {
	t.cache = c
	if t.sched != nil {
		t.sched.SetCache(c)
	}
}

// New assembles a trainer for the framework kind over the dataset.
func New(kind Kind, ds *datasets.Dataset, opt Options) (*Trainer, error) {
	t := &Trainer{Kind: kind, Opt: opt, Dataset: ds}
	t.Engine = core.NewEngine(opt.Device)

	switch kind {
	case DGL:
		t.strategy, t.format = kernels.GraphApproach{}, prep.FormatCOO
	case PyG, PyGMT, SALIENT:
		t.strategy, t.format = kernels.DLApproach{}, prep.FormatCSR
	case GNNAdvisor:
		t.strategy, t.format = kernels.Advisor{}, prep.FormatCSR
	default:
		t.strategy, t.format = kernels.NAPA{}, prep.FormatCSRCSC
	}
	t.pinned = kind == SALIENT || kind == BaseGT || kind == DynamicGT || kind == PreproGT
	t.overlap = kind == DGL || kind == SALIENT || kind == BaseGT || kind == DynamicGT || kind == PreproGT

	t.samplerCfg = sampling.Config{
		Fanout:      opt.Fanout,
		Layers:      opt.Layers,
		IncludeSelf: true,
		Seed:        opt.Seed,
		Mode:        sampling.ModeSplit,
	}
	if kind == PyG {
		t.samplerCfg.Workers = 1
	}

	if kind == DynamicGT || kind == PreproGT {
		// The placement policy is fitted offline per device class from
		// modeled kernel times; one instance is shared by every replica
		// (decisions are pure functions of the profile, so sharing is an
		// optimization, not a correctness requirement).
		t.policy = dkp.NewPolicy(dkp.ProfileFor(opt.Device))
	}
	mp := t.modelParams()
	if opt.NumDevices >= 1 {
		// Data-parallel engine: one weight replica per device. DKP stays
		// live — placements are pure functions of the fitted profile and
		// the shard shape, identical on every replica by construction.
		devCfg := opt.Device
		if opt.DevicesPerNode > 0 {
			// Hierarchical fabric: the node size turns the group's flat
			// interconnect into the two-tier NVLink-intra / network-inter
			// model, and the group becomes node-aware end to end (plan
			// node assignment, tiered collectives, split-drain overlap).
			devCfg.Interconnect = gpusim.HierarchicalInterconnect(opt.DevicesPerNode)
		}
		var err error
		t.group, err = multigpu.NewGroup(opt.NumDevices, opt.GradShards, devCfg, t.pinned,
			func() (*core.Model, error) { return models.ByName(opt.Model, mp) })
		if err != nil {
			return nil, err
		}
		if opt.FaultPlan != nil {
			t.group.SetFaultPlan(opt.FaultPlan)
		}
		// Replica 0 is the canonical trained model: validation and
		// inference read the weights the folded updates produce.
		t.Model = t.group.Replica(0)
	} else {
		model, err := models.ByName(opt.Model, mp)
		if err != nil {
			return nil, err
		}
		t.Model = model
	}

	if kind == PreproGT {
		cfg := pipeline.DefaultConfig()
		cfg.Sampler = t.samplerCfg
		cfg.Format = t.format
		// Under the device group, batches stage in host memory only: each
		// device pays the PCIe scatter for its own shards instead.
		cfg.HostOnly = t.group != nil
		t.sched = pipeline.NewScheduler(ds.Graph, ds.Features, ds.Labels, t.Engine.Dev, cfg)
	} else {
		// Serial-prep frameworks own a persistent sampler (its hop scratch
		// pool is the reuse surface); the pipelined scheduler owns its own.
		t.sampler = sampling.New(ds.Graph, t.samplerCfg)
	}
	return t, nil
}

// modelParams assembles the model factory parameters of the trainer's
// architecture (shared by New and SnapshotModel).
func (t *Trainer) modelParams() models.Params {
	return models.Params{
		InDim:     t.Dataset.FeatureDim,
		Hidden:    t.Opt.Hidden,
		OutDim:    maxInt(int(maxLabel(t.Dataset.Labels))+1, 2),
		Layers:    t.Opt.Layers,
		Seed:      t.Opt.Seed,
		Strategy:  t.strategy,
		EnableDKP: t.Kind == DynamicGT || t.Kind == PreproGT,
		Policy:    t.policy,
	}
}

// OutDim returns the model's logit width (the per-dst row a served query
// scatters back).
func (t *Trainer) OutDim() int {
	return t.Model.Layers[len(t.Model.Layers)-1].Spec.OutDim
}

// SnapshotModel builds a fresh replica of the trainer's architecture and
// copies the current trained weights into it — the weight snapshot a
// serving replica binds. The snapshot fixes one placement per layer at
// construction, computed from the fitted profile and the trainer's
// canonical batch shape (ServingPlacements): a pure function of trainer
// state, never of the serving configuration or of how a query was
// coalesced, so a query's logits are bitwise identical on any replica at
// any batch composition. Per-batch shape-keyed decisions stay a training
// optimization.
func (t *Trainer) SnapshotModel() (*core.Model, error) {
	mp := t.modelParams()
	mp.EnableDKP = false
	m, err := models.ByName(t.Opt.Model, mp)
	if err != nil {
		return nil, err
	}
	for li, l := range t.Model.Layers {
		copy(m.Layers[li].W.Data, l.W.Data)
		copy(m.Layers[li].B, l.B)
	}
	m.SetLayerPlacements(t.ServingPlacements())
	return m, nil
}

// ServingPlacements returns the fixed per-layer placements a serving
// snapshot pins: the policy evaluated on the trainer's canonical layer
// shapes (servingDims). Non-DKP frameworks pin aggregation-first
// throughout. The result depends only on trainer-level state (profile,
// model architecture, sampling configuration, dataset size), which is what
// makes coalesced and serial serving bitwise identical with the policy
// live.
func (t *Trainer) ServingPlacements() []dkp.Placement {
	ps := make([]dkp.Placement, len(t.Model.Layers))
	if t.policy == nil {
		return ps // zero value: aggregation-first
	}
	for li, l := range t.Model.Layers {
		ps[li] = t.policy.Decide(t.servingDims(li), li == 0, l.Spec.Modes.WeightCols(l.Spec.InDim))
	}
	return ps
}

// servingDims models the expected shape of layer li's sampled subgraph for
// a canonical batch of Opt.BatchSize dsts: each hop below the batch
// multiplies the frontier by the sampling branch factor (Fanout plus the
// self edge), capped by the dataset's vertex count. Layer 0 executes first
// on the largest frontier.
func (t *Trainer) servingDims(li int) dkp.Dims {
	branch := t.Opt.Fanout + 1 // sampled neighbors + self edge
	nv := t.Dataset.NumVertices()
	capped := func(n int) int {
		if n > nv {
			return nv
		}
		return n
	}
	nDst := t.Opt.BatchSize
	for hop := 0; hop < t.Opt.Layers-1-li; hop++ {
		nDst = capped(nDst * branch)
	}
	nSrc := capped(nDst * branch)
	l := t.Model.Layers[li]
	return dkp.Dims{
		NSrc:  nSrc,
		NDst:  nDst,
		NEdge: nDst * branch,
		NFeat: l.Spec.InDim,
		NHid:  l.Spec.OutDim,
	}
}

// BatchStats reports one end-to-end training batch.
type BatchStats struct {
	Prep      time.Duration
	Compute   time.Duration
	Total     time.Duration
	Loss      float64
	PrepParts *metrics.Breakdown
	// Counters is the device work performed during compute.
	Counters gpusim.Counters
}

// Prepare runs the framework's preprocessing for one batch of dst
// vertices.
func (t *Trainer) Prepare(dsts []graph.VID, tl *metrics.Timeline) (*prep.Batch, error) {
	return t.PrepareInto(dsts, tl, nil)
}

// PrepareInto is Prepare with the batch's storage drawn from a prefetch
// ring slot — dense host buffers from its arena, producer structures
// (sampler result, layer graphs, labels) from its structure pool. A nil
// slot falls back to plain allocation (validation and probe batches).
func (t *Trainer) PrepareInto(dsts []graph.VID, tl *metrics.Timeline, slot *pipeline.Slot) (*prep.Batch, error) {
	var b *prep.Batch
	var err error
	if t.sched != nil {
		b, err = t.sched.PrepareSlot(dsts, tl, slot)
	} else {
		b, err = prep.Serial(t.sampler, t.Dataset.Features, t.Dataset.Labels,
			t.Engine.Dev, dsts,
			prep.Config{Format: t.format, Pinned: t.pinned, Arena: slot.TensorArena(),
				Structs: slot.StructPool(), HostOnly: t.group != nil, Cache: t.cache})
	}
	return b, err
}

// PrepareTrainInto is PrepareInto for training batches: with a device group
// it also attaches the data-parallel sub-batch plan — rebuilt in place from
// the slot's recycled plan — so the prefetch ring's producer carves shards
// while the consumer computes. Validation and probe batches go through
// PrepareInto and skip the partitioning work (the group recomputes lazily
// if a training batch ever arrives without a plan).
func (t *Trainer) PrepareTrainInto(dsts []graph.VID, slot *pipeline.Slot) (*prep.Batch, error) {
	b, err := t.PrepareInto(dsts, nil, slot)
	if err == nil && t.group != nil && b.Labels != nil {
		old, _ := slot.StructPool().TakePlan().(*multigpu.BatchPlan)
		b.SubBatches, err = multigpu.PartitionBatchNodesReuse(b, t.group.NumShards(), t.group.NumNodes(), old)
		if err != nil {
			b.Release()
			return nil, err
		}
	}
	return b, err
}

// NewRing builds this framework's prefetch ring over the dst lists:
// overlap-capable frameworks prepare PrefetchDepth batches ahead on a
// background producer; the serial baselines get a synchronous depth-0 ring
// so every framework trains through the same interface.
func (t *Trainer) NewRing(lists [][]graph.VID) *pipeline.Ring {
	return t.NewRingN(len(lists), func(i int) []graph.VID { return lists[i] })
}

// NewRingN is NewRing with the n dst lists drawn lazily from next, so long
// schedules (the training driver feeds whole runs through one ring) never
// materialize every batch's dst list up front. next runs on the ring's
// producer goroutine; it must not be shared with concurrent dst drawing.
func (t *Trainer) NewRingN(n int, next func(i int) []graph.VID) *pipeline.Ring {
	depth := 0
	if t.overlap {
		depth = t.Opt.PrefetchDepth
		if depth <= 0 {
			depth = 2
		}
	}
	if t.slots == nil {
		t.slots = pipeline.NewSlotRing(depth + 2)
	}
	return pipeline.NewRingShared(depth, n, t.slots, next, func(d []graph.VID, s *pipeline.Slot) (*prep.Batch, error) {
		return t.PrepareTrainInto(d, s)
	})
}

// input converts a prepared batch to a model input.
func (t *Trainer) input(b *prep.Batch) (*core.Input, error) {
	graphs := make([]*kernels.Graphs, len(b.Layers))
	for i, l := range b.Layers {
		graphs[i] = &kernels.Graphs{COO: l.COO, CSR: l.CSR, CSC: l.CSC}
	}
	x, err := t.Engine.Upload(b.Embed.Data, "batch-x")
	if err != nil {
		return nil, err
	}
	return &core.Input{Graphs: graphs, X: x, Labels: b.Labels}, nil
}

// Compute runs FWP + BWP + update on a prepared batch and returns the
// loss; the caller owns releasing the batch. With NumDevices set the step
// dispatches to the data-parallel device group instead of the single
// engine device.
func (t *Trainer) Compute(b *prep.Batch) (float64, error) {
	if t.group != nil {
		return t.group.TrainBatch(b, t.Opt.LearningRate)
	}
	in, err := t.input(b)
	if err != nil {
		return 0, err
	}
	loss, err := t.Model.TrainStep(t.Engine.Ctx, in, t.Opt.LearningRate)
	in.X.Free()
	// The batch's graphs are released by the caller; drop the per-graph
	// memos so they do not pin the graph storage.
	t.Engine.Ctx.EndBatch()
	return loss, err
}

// InferDispatch is retained FWP-only dispatch state: the layer graph
// views, their pointer directory and the input header are rebuilt in place
// for every served batch instead of reallocated (the GroupDev discipline,
// applied to inference). The trainer's fast path and every serving replica
// own one; a dispatch serves one inference at a time (replicas never share
// theirs).
type InferDispatch struct {
	graphs []kernels.Graphs
	gptrs  []*kernels.Graphs
	input  core.Input
}

// Infer runs forward propagation only — no gradients, no update — for the
// prepared batch on the given kernel context and model, with x the batch's
// device-held feature matrix (the caller uploads/wraps it and frees it
// afterwards, alongside the returned logits). The dispatch state is rebuilt
// in place, so a warm inference adds no per-batch allocations of its own.
func (d *InferDispatch) Infer(ctx *kernels.Ctx, m *core.Model, b *prep.Batch, x *kernels.DeviceMatrix) (*kernels.DeviceMatrix, error) {
	if cap(d.graphs) < len(b.Layers) {
		d.graphs = make([]kernels.Graphs, len(b.Layers))
		d.gptrs = make([]*kernels.Graphs, len(b.Layers))
		for i := range d.graphs {
			d.gptrs[i] = &d.graphs[i]
		}
	}
	d.graphs = d.graphs[:cap(d.graphs)]
	for i, l := range b.Layers {
		d.graphs[i] = kernels.Graphs{COO: l.COO, CSR: l.CSR, CSC: l.CSC}
	}
	d.input = core.Input{Graphs: d.gptrs[:len(b.Layers)], X: x, Labels: b.Labels}
	logits, err := m.Infer(ctx, &d.input)
	d.input = core.Input{}
	return logits, err
}

// InferBatch runs forward propagation only — no gradients, no update — on a
// prepared batch through the trainer's retained inference dispatch and
// returns the logits (device-held; the caller frees them). Under a device
// group the canonical replica-0 weights are used. This is the serving fast
// path: no gradient shards, no label buffers, no backward workspaces ever
// exist, and with a warm slot feeding PrepareInto a served batch allocates
// a small constant (BenchmarkServeQuery guards it).
func (t *Trainer) InferBatch(b *prep.Batch) (*kernels.DeviceMatrix, error) {
	x, err := t.Engine.Upload(b.Embed.Data, "serve-x")
	if err != nil {
		return nil, err
	}
	logits, err := t.infer.Infer(t.Engine.Ctx, t.Model, b, x)
	x.Free()
	t.Engine.Ctx.EndBatch()
	return logits, err
}

// Serve prepares one coalesced query batch through the slot and runs the
// FWP-only fast path, returning the logits and the prepared batch. The
// caller frees the logits, releases the batch and recycles the slot —
// the warm loop BenchmarkServeQuery gates.
func (t *Trainer) Serve(dsts []graph.VID, slot *pipeline.Slot) (*kernels.DeviceMatrix, *prep.Batch, error) {
	b, err := t.PrepareInto(dsts, nil, slot)
	if err != nil {
		return nil, nil, err
	}
	logits, err := t.InferBatch(b)
	if err != nil {
		b.Release()
		return nil, nil, err
	}
	return logits, b, nil
}

// Evaluate runs inference on a prepared batch and returns classification
// accuracy (no gradient update). The caller owns releasing the batch.
func (t *Trainer) Evaluate(b *prep.Batch) (float64, error) {
	in, err := t.input(b)
	if err != nil {
		return 0, err
	}
	acc, err := t.Model.Evaluate(t.Engine.Ctx, in)
	in.X.Free()
	t.Engine.Ctx.EndBatch()
	return acc, err
}

// TrainBatch runs one full batch (prep + compute) without cross-batch
// overlap and reports its stats.
func (t *Trainer) TrainBatch() (*BatchStats, error) {
	dsts := t.nextDsts()
	st := &BatchStats{}
	t0 := time.Now()
	b, err := t.Prepare(dsts, nil)
	if err != nil {
		return nil, err
	}
	st.Prep = time.Since(t0)
	st.PrepParts = b.Breakdown

	var before gpusim.Counters
	if t.group == nil {
		before = t.Engine.Dev.Snapshot()
	}
	t1 := time.Now()
	st.Loss, err = t.Compute(b)
	if err != nil {
		b.Release()
		return nil, err
	}
	st.Compute = time.Since(t1)
	if t.group != nil {
		st.Counters = t.group.LastStats().Counters
	} else {
		st.Counters = t.Engine.Dev.Snapshot().Sub(before)
	}
	st.Total = time.Since(t0)
	b.Release()
	return st, nil
}

// TrainEpoch runs n batches under the framework's overlap discipline
// (prefetching ahead through the ring where the framework supports it) and
// returns the end-to-end wall time plus the mean loss.
func (t *Trainer) TrainEpoch(n int) (time.Duration, float64, error) {
	if n <= 0 {
		return 0, 0, nil
	}
	dstLists := make([][]graph.VID, n)
	for i := range dstLists {
		dstLists[i] = t.nextDsts()
	}
	ring := t.NewRing(dstLists)
	defer ring.Stop()
	return t.TrainStream(ring, n)
}

// TrainStream consumes n prepared batches from the ring, running compute +
// update on each, and returns the wall time plus the mean loss. The ring
// may span multiple epochs (the training driver feeds one ring with the
// whole schedule so preprocessing of epoch e+1 overlaps the tail of epoch
// e); the caller owns stopping it.
func (t *Trainer) TrainStream(ring *pipeline.Ring, n int) (time.Duration, float64, error) {
	if n <= 0 {
		return 0, 0, nil
	}
	start := time.Now()
	mean, err := t.TrainStreamHook(ring, n, nil)
	return time.Since(start), mean, err
}

// ModeledPrep returns the modeled preprocessing latency of one batch under
// this framework's scheduling discipline. Like ModeledCompute, it is
// independent of the simulator's host: it evaluates the pipeline cost model
// on the batch's sampled-subgraph shape (see internal/pipeline.PrepCostModel).
func (t *Trainer) ModeledPrep(b *prep.Batch) time.Duration {
	cm := pipeline.DefaultPrepCostModel()
	tt := cm.ModelBatch(b, t.Dataset.FeatureDim, t.pinned)
	switch t.Kind {
	case PreproGT:
		return cm.Pipelined(tt)
	case SALIENT:
		return cm.SALIENT(tt)
	default:
		return cm.Serial(tt)
	}
}

// ModeledTaskTimes returns the per-task modeled preprocessing times for a
// prepared batch (the Fig 12a / Fig 20 breakdown data), with the batch's
// embedding-cache residency discounted from the K/T tasks.
func (t *Trainer) ModeledTaskTimes(b *prep.Batch) pipeline.TaskTimes {
	return pipeline.DefaultPrepCostModel().ModelBatch(b, t.Dataset.FeatureDim, t.pinned)
}

// ModeledCompute estimates the GPU time of one training batch's kernels
// under the device kernel-time model: the simulator executes kernels on
// the host CPU, so wall-clock compute is orders of magnitude above what
// the modeled RTX 3090 would take; end-to-end comparisons use this
// estimate (see gpusim.KernelTimeModel).
func (t *Trainer) ModeledCompute(st *BatchStats) time.Duration {
	return t.Engine.Dev.Estimate(gpusim.DefaultKernelTimeModel(), st.Counters)
}

// SimulatedEpoch runs n batches and returns the simulated end-to-end
// latency: modeled preprocessing time (under this framework's scheduling
// discipline) combined with modeled GPU compute time. Frameworks that
// overlap preprocessing with GPU compute pay the larger of the two per
// batch; the others pay their sum. Both components are modeled rather than
// wall-clock measured, because the simulator runs kernels on the host CPU
// and the host core count would otherwise distort the comparison.
func (t *Trainer) SimulatedEpoch(n int) (time.Duration, error) {
	if n <= 0 {
		return 0, nil
	}
	st, err := t.TrainBatch()
	if err != nil {
		return 0, err
	}
	compute := t.ModeledCompute(st)
	var total time.Duration
	for i := 0; i < n; i++ {
		b, err := t.Prepare(t.nextDsts(), nil)
		if err != nil {
			return 0, err
		}
		prep := t.ModeledPrep(b)
		b.Release()
		if t.overlap {
			// Preprocessing and GPU compute overlap across batches; the
			// batch latency is the larger of the two.
			if prep > compute {
				total += prep
			} else {
				total += compute
			}
		} else {
			total += prep + compute
		}
	}
	return total, nil
}

// Warmup runs n training batches before measurement. The DKP cost model
// is fitted offline by dkp.Calibrate at engine construction, so no
// first-epoch observation pass remains — warmup only brings caches and
// pools to steady state.
func (t *Trainer) Warmup(n int) error {
	for i := 0; i < n; i++ {
		if _, err := t.TrainBatch(); err != nil {
			return err
		}
	}
	return nil
}

// NextDsts draws the next deterministic batch of dst vertices — the
// sequence the epoch drivers feed into the prefetch ring.
func (t *Trainer) NextDsts() []graph.VID { return t.nextDsts() }

// nextDsts draws the next deterministic batch of dst vertices.
func (t *Trainer) nextDsts() []graph.VID {
	t.batchSeq++
	return t.Dataset.BatchDsts(t.Opt.BatchSize, t.Opt.Seed*1_000_003+t.batchSeq)
}

func maxLabel(labels []int32) int32 {
	var m int32
	for _, l := range labels {
		if l > m {
			m = l
		}
	}
	return m
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
