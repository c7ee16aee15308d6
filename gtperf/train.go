package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"graphtensor/internal/datasets"
	"graphtensor/internal/frameworks"
	"graphtensor/internal/gpusim"
	"graphtensor/internal/graph"
	"graphtensor/internal/multigpu"
	"graphtensor/internal/pipeline"
	"graphtensor/internal/prep"
	"graphtensor/internal/sampling"
	"graphtensor/internal/train"
)

// trainSpec is one training workload. Both train Prepro-GT through the
// data-parallel engine (NumDevices >= 1) and run the train.Driver schedule
// in segments of epochs x batches, validating every epoch.
type trainSpec struct {
	name, dataset, model string
	devices, perNode     int
	// ckptEvery is the checkpoint cadence in batches (0: no checkpoints).
	ckptEvery       int
	epochs, batches int
}

// train-light: tiny launches (hidden 8 over 12-dim features) on one
// device, so fixed per-launch simulator cost dominates; the checkpoint
// write path runs every 5 batches.
var lightSpec = trainSpec{name: "train-light", dataset: "products", model: "gcn",
	devices: 1, ckptEvery: 5, epochs: 4, batches: 10}

// train-heavy: dense 544-dim NGCF GEMMs on 4 devices over 2 nodes, so
// every step runs the node-aware partition, per-tier scatter and
// hierarchical all-reduce model; no checkpoints.
var heavySpec = trainSpec{name: "train-heavy", dataset: "gowalla", model: "ngcf",
	devices: 4, perNode: 2, epochs: 2, batches: 10}

// refBatches is how many leading losses train-heavy compares against a
// single-device reference at the same gradient-shard count.
const refBatches = 4

func (s trainSpec) options(seed uint64) frameworks.Options {
	opt := frameworks.DefaultOptions()
	opt.Model, opt.Seed = s.model, seed
	opt.NumDevices, opt.DevicesPerNode = s.devices, s.perNode
	return opt
}

// trainRun is a set-up training workload.
type trainRun struct {
	spec  trainSpec
	seed  uint64
	ds    *datasets.Dataset
	tr    *frameworks.Trainer
	val   []graph.VID
	dir   string // checkpoint directory (empty without checkpoints)
	slots chan *pipeline.Slot
	// Set-up phase wall times (traced runs only).
	generate, profile time.Duration
}

func setupTrain(spec trainSpec, seed uint64, tc *tracer) (runner, error) {
	root := tc.begin("train.setup", -1, -1, 0)
	defer tc.end(root)
	r := &trainRun{spec: spec, seed: seed}
	t0 := time.Now()
	ds, err := datasets.Generate(spec.dataset, datasets.DefaultScale())
	if err != nil {
		return nil, err
	}
	r.generate = time.Since(t0)
	tc.add("datasets.generate", t0, t0.Add(r.generate), root, -1, 0)
	r.ds = ds
	opt := spec.options(seed)
	r.val = ds.BatchDsts(opt.BatchSize, seed^0x5eed_7a1)

	// The first trainer construction fits the DKP cost profile for the
	// device class (memoized for the process).
	t0 = time.Now()
	if r.tr, err = frameworks.New(frameworks.PreproGT, ds, opt); err != nil {
		return nil, err
	}
	r.profile = time.Since(t0)
	tc.add("dkp.profile", t0, t0.Add(r.profile), root, -1, 0)
	if spec.ckptEvery > 0 {
		if err := os.MkdirAll(".bench_build", 0o755); err != nil {
			return nil, err
		}
		if r.dir, err = os.MkdirTemp(".bench_build", "ckpt-"); err != nil {
			return nil, err
		}
	}
	r.slots = pipeline.NewSlotRing(opt.PrefetchDepth + 2)
	sp := tc.begin("train.warmup", root, -1, 0)
	defer tc.end(sp)
	if err := r.warmup(r.tr); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// warmup runs one epoch through the driver, bringing pools, slots and the
// checkpoint directory to steady state.
func (r *trainRun) warmup(tr *frameworks.Trainer) error {
	_, err := train.NewDriver(tr, r.driverConfig(1), r.val).Run()
	return err
}

func (r *trainRun) driverConfig(epochs int) train.Config {
	return train.Config{Epochs: epochs, BatchesPerEpoch: r.spec.batches, ValEvery: 1,
		CheckpointDir: r.dir, CheckpointEvery: r.spec.ckptEvery}
}

func (r *trainRun) close() {
	if r.dir != "" {
		os.RemoveAll(r.dir)
	}
}

// segmentDsts is the dst vertices one driver segment trains.
func (r *trainRun) segmentDsts() int {
	return r.spec.epochs * r.spec.batches * r.tr.Opt.BatchSize
}

func (r *trainRun) run(budget time.Duration, tc *tracer, res *result) error {
	defer r.close()
	if tc != nil {
		return r.runTraced(budget, tc, res)
	}
	// End to end: whole train.Driver schedules, back to back, until the
	// budget is spent. Each segment's throughput is one sample.
	var tput, perBatch []float64
	var first uint64
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < budget; i++ {
		t0 := time.Now()
		h, err := train.NewDriver(r.tr, r.driverConfig(r.spec.epochs), r.val).Run()
		if err != nil {
			return err
		}
		wall := time.Since(t0)
		res.op(r.spec.epochs*r.spec.batches, 0)
		tput = append(tput, float64(r.segmentDsts())/wall.Seconds())
		for _, e := range h.Epochs {
			perBatch = append(perBatch, float64(e.Wall)/1e6/float64(r.spec.batches))
		}
		if i == 0 {
			first = weightSum(r.tr)
		}
	}
	res.set("peak_rss_mb", peakRSSMB())
	res.set("throughput_per_s", median(tput))
	res.set("latency_p50_ms", median(perBatch))

	// Output checks, outside the measured window. Two fresh trainers of
	// the same seed replay the first segment through the benchmark's own
	// loop: both must end on the driver's weights, and every modeled
	// figure must repeat exactly.
	a, err := r.replay(r.spec.options(r.seed), 0)
	if err != nil {
		return err
	}
	b, err := r.replay(r.spec.options(r.seed), 0)
	if err != nil {
		return err
	}
	res.check(a.weights == first && b.weights == first,
		"final-weights checksum differs across runs of seed %d: driver %x, replays %x %x", r.seed, first, a.weights, b.weights)
	res.check(a.modeled == b.modeled, "modeled metrics differ across two runs of seed %d:\n  %+v\n  %+v", r.seed, a.modeled, b.modeled)
	if r.spec.devices > 1 {
		opt := r.spec.options(r.seed)
		opt.NumDevices, opt.DevicesPerNode, opt.GradShards = 1, 0, r.tr.Group().NumShards()
		ref, err := r.replay(opt, refBatches)
		if err != nil {
			return err
		}
		same := len(ref.losses) == refBatches
		for i := 0; same && i < refBatches; i++ {
			same = math.Float64bits(ref.losses[i]) == math.Float64bits(a.losses[i])
		}
		res.check(same, "first %d losses %v differ from the 1-device reference %v", refBatches, a.losses[:refBatches], ref.losses)
	}
	res.set("modeled_us", a.modeled.meanUs(a.modeled.step))
	return nil
}

// replay builds a fresh trainer, warms it up like the measured one and
// runs the first segment (or only its first limit batches) through loop.
func (r *trainRun) replay(opt frameworks.Options, limit int) (*loopResult, error) {
	tr, err := frameworks.New(frameworks.PreproGT, r.ds, opt)
	if err != nil {
		return nil, err
	}
	if err := r.warmup(tr); err != nil {
		return nil, err
	}
	return r.loop(tr, limit, nil, -1, nil)
}

// modeled sums the simulator's modeled figures over a loop's steps. Every
// field is a pure function of the seed and the schedule, so two runs of
// one seed compare equal with ==.
type modeled struct {
	steps                                  int
	step, scatter, allReduce, intra, inter time.Duration
	maxDevice                              time.Duration
	commBytes, crossBytes                  int64
	imbalance, nodeImbalance, overlap      float64
	counters                               gpusim.Counters
	aggrFirst, combFirst                   int
	prepS, prepR, prepK, prepT             time.Duration
	prepBatches                            int
}

func (m *modeled) meanUs(d time.Duration) float64 {
	return float64(d) / 1e3 / float64(m.steps)
}

func (m *modeled) prepUs(d time.Duration) float64 {
	return float64(d) / 1e3 / float64(m.prepBatches)
}

func (m *modeled) perStep(v int64) float64 { return float64(v) / float64(m.steps) }

// loopResult is what one pass of loop observed.
type loopResult struct {
	losses  []float64
	weights uint64
	modeled modeled
	dsts    [][]graph.VID // the first batches' dst lists, for replays
	batches int
}

// loop is the benchmark's own copy of train.Driver.Run for one segment:
// the same prefetch ring, compute, per-epoch validation and checkpoint
// cadence, built from the modules' exported calls so each call can be
// timed. With a tracer every call is a span under parent. limit > 0 stops
// after that many batches (and skips validation and checkpoints). The
// modeled figures add into acc, or into the result's own when acc is nil.
func (r *trainRun) loop(tr *frameworks.Trainer, limit int, tc *tracer, parent int32, acc *modeled) (*loopResult, error) {
	out := &loopResult{}
	if acc == nil {
		acc = &out.modeled
	}
	n := r.spec.epochs * r.spec.batches
	if limit > 0 {
		n = limit
	}
	var seq int64
	var pm modeled // written by the producer only; read after ring.Stop
	next := func(int) []graph.VID {
		d := tr.NextDsts()
		if len(out.dsts) < 16 {
			out.dsts = append(out.dsts, d)
		}
		return d
	}
	prepare := func(d []graph.VID, s *pipeline.Slot) (*prep.Batch, error) {
		seq++
		sp := tc.begin("prep.prepare", parent, seq, 1)
		b, err := tr.PrepareTrainInto(d, s)
		tc.end(sp)
		if err == nil {
			tt := tr.ModeledTaskTimes(b)
			pm.prepS += tt.Sample
			pm.prepR += tt.Reindex
			pm.prepK += tt.Lookup
			pm.prepT += tt.Transfer
			pm.prepBatches++
		}
		return b, err
	}
	ckpt := r.dir
	if ckpt != "" && limit == 0 {
		ckpt = filepath.Join(r.dir, "loop")
		if err := os.MkdirAll(ckpt, 0o755); err != nil {
			return nil, err
		}
	}
	ring := pipeline.NewRingShared(tr.Opt.PrefetchDepth, n, r.slots, next, prepare)
	defer ring.Stop()
	var g int
	for i := 0; i < n; i++ {
		id := int64(i)
		sp := tc.begin("pipeline.ring_next", parent, id, 0)
		b, err := ring.Next()
		tc.end(sp)
		if err != nil {
			return nil, err
		}
		sp = tc.begin("multigpu.compute", parent, id, 0)
		loss, err := tr.Compute(b)
		tc.end(sp)
		b.Release()
		if err != nil {
			return nil, err
		}
		out.losses = append(out.losses, loss)
		acc.add(tr.Group().LastStats())
		if limit > 0 {
			continue
		}
		if g++; r.spec.ckptEvery > 0 && g%r.spec.ckptEvery == 0 {
			sp = tc.begin("train.checkpoint", parent, id, 0)
			err = checkpoint(tr, ckpt, g, r.spec.ckptEvery)
			tc.end(sp)
			if err != nil {
				return nil, err
			}
		}
		if (i+1)%r.spec.batches == 0 {
			sp = tc.begin("train.validate", parent, id, 0)
			err = validate(tr, r.val)
			tc.end(sp)
			if err != nil {
				return nil, err
			}
		}
	}
	ring.Stop() // the producer has exited: pm is safe to read
	acc.prepS += pm.prepS
	acc.prepR += pm.prepR
	acc.prepK += pm.prepK
	acc.prepT += pm.prepT
	acc.prepBatches += pm.prepBatches
	out.batches = n
	out.weights = weightSum(tr)
	return out, nil
}

func (m *modeled) add(st multigpu.GroupStats) {
	m.steps++
	m.step += st.StepTime
	m.scatter += st.ScatterTime
	m.allReduce += st.AllReduceTime
	m.intra += st.IntraNodeTime
	m.inter += st.InterNodeTime
	m.maxDevice += st.MaxDeviceCompute
	m.commBytes += st.CommBytes
	m.crossBytes += st.CrossNodeBytes
	m.imbalance += st.Imbalance
	m.nodeImbalance += st.NodeImbalance
	m.overlap += st.OverlapEfficiency
	m.counters = addCounters(m.counters, st.Counters)
	for _, p := range st.Placements {
		m.aggrFirst += p.AggrFirst
		m.combFirst += p.CombFirst
	}
}

// checkpoint snapshots the trainer at global batch g the way the driver
// does (CRC-sealed temp+fsync+rename) and drops the snapshot from two
// cadences back, keeping the newest two.
func checkpoint(tr *frameworks.Trainer, dir string, g, every int) error {
	if err := tr.Checkpoint(filepath.Join(dir, fmt.Sprintf("ckpt-%010d", g)), uint64(g)); err != nil {
		return err
	}
	if old := g - 2*every; old > 0 {
		if err := os.Remove(filepath.Join(dir, fmt.Sprintf("ckpt-%010d", old))); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	return nil
}

// validate evaluates the fixed validation batch, as the driver does.
func validate(tr *frameworks.Trainer, val []graph.VID) error {
	b, err := tr.Prepare(val, nil)
	if err != nil {
		return err
	}
	defer b.Release()
	_, err = tr.Evaluate(b)
	return err
}

// weightSum is an FNV-1a checksum over the bits of every weight and bias
// of the trainer's canonical model.
func weightSum(tr *frameworks.Trainer) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	put := func(vs []float32) {
		for _, v := range vs {
			u := math.Float32bits(v)
			buf[0], buf[1], buf[2], buf[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
			h.Write(buf[:])
		}
	}
	for _, l := range tr.Model.Layers {
		put(l.W.Data)
		put(l.B)
	}
	return h.Sum64()
}

// runTraced alternates segments of the benchmark's own loop untraced and
// traced until the budget is spent, so drift over the run cancels out of
// the tracing overhead, then replays sampling on the traced batches. It
// reports the per-layer metrics.
func (r *trainRun) runTraced(budget time.Duration, tc *tracer, res *result) error {
	var plain, traced []float64
	var roots []int32
	var all modeled
	var batches int
	var allocs, gcs, pauses uint64
	var dsts [][]graph.VID
	var ms0, ms1 runtime.MemStats
	start := time.Now()
	for i := 0; i < 2 || time.Since(start) < budget; i++ {
		on := i%2 == 1
		var stc *tracer
		var acc *modeled
		root := int32(-1)
		if on {
			stc, acc = tc, &all
			runtime.ReadMemStats(&ms0)
			root = tc.begin("train.segment", -1, int64(i), 0)
			roots = append(roots, root)
		}
		t0 := time.Now()
		lr, err := r.loop(r.tr, 0, stc, root, acc)
		if err != nil {
			return err
		}
		tput := float64(r.segmentDsts()) / time.Since(t0).Seconds()
		res.op(lr.batches, 0)
		if !on {
			plain = append(plain, tput)
			continue
		}
		tc.end(root)
		runtime.ReadMemStats(&ms1)
		allocs += ms1.Mallocs - ms0.Mallocs
		gcs += uint64(ms1.NumGC - ms0.NumGC)
		pauses += ms1.PauseTotalNs - ms0.PauseTotalNs
		traced = append(traced, tput)
		batches += lr.batches
		if dsts == nil {
			dsts = lr.dsts
		}
	}

	compute := sum(tc.durations("multigpu.compute"))
	res.set("datasets.generate_s", r.generate.Seconds())
	res.set("dkp.profile_s", r.profile.Seconds())
	res.set("dkp.comb_first_frac", frac(all.combFirst, all.aggrFirst+all.combFirst))
	sampleReplay(res, r.ds, r.tr.SamplerConfig(), dsts)
	res.set("prep.prepare_ms", median(durMs(tc.durations("prep.prepare"))))
	res.set("prep.modeled_s_us", all.prepUs(all.prepS))
	res.set("prep.modeled_r_us", all.prepUs(all.prepR))
	res.set("prep.modeled_k_us", all.prepUs(all.prepK))
	res.set("prep.modeled_t_us", all.prepUs(all.prepT))
	res.set("pipeline.ring_wait_ms", mean(durMs(tc.durations("pipeline.ring_next"))))
	res.set("multigpu.compute_ms", median(durMs(tc.durations("multigpu.compute"))))
	res.set("multigpu.modeled_scatter_us", all.meanUs(all.scatter))
	res.set("multigpu.modeled_allreduce_us", all.meanUs(all.allReduce))
	res.set("multigpu.modeled_intra_us", all.meanUs(all.intra))
	res.set("multigpu.modeled_inter_us", all.meanUs(all.inter))
	res.set("multigpu.comm_bytes", all.perStep(all.commBytes))
	res.set("multigpu.cross_node_bytes", all.perStep(all.crossBytes))
	res.set("multigpu.imbalance", all.imbalance/float64(all.steps))
	res.set("multigpu.node_imbalance", all.nodeImbalance/float64(all.steps))
	res.set("multigpu.overlap_eff", all.overlap/float64(all.steps))
	res.set("multigpu.max_device_compute_us", all.meanUs(all.maxDevice))
	setCounters(res, all.counters, all.steps, compute)
	res.set("host.allocs_per_batch", float64(allocs)/float64(batches))
	res.set("host.gc_cycles", float64(gcs))
	res.set("host.gc_pause_ms", float64(pauses)/1e6)
	res.set("train.checkpoint_ms", median(durMs(tc.durations("train.checkpoint"))))
	res.set("train.validate_ms", median(durMs(tc.durations("train.validate"))))
	res.set("trace.coverage", tc.coverage(roots...))
	res.set("trace.overhead_frac", 1-median(traced)/median(plain))
	for _, name := range serveOnly {
		res.set(name, 0)
	}
	selfNotes(res, tc)
	return nil
}

// setCounters reports the simulator's per-batch modeled counts and the
// host wall the simulation spent per launch and per thousand FLOPs.
func setCounters(res *result, c gpusim.Counters, batches int, hostWall time.Duration) {
	per := func(v int64) float64 { return float64(v) / float64(batches) }
	res.set("gpusim.launches", per(c.Launches))
	res.set("gpusim.flops", per(c.FLOPs))
	res.set("gpusim.global_loads", per(c.GlobalLoads))
	res.set("gpusim.global_stores", per(c.GlobalStores))
	res.set("gpusim.cache_hits", per(c.CacheHits))
	res.set("gpusim.l1_hit_ratio", frac(int(c.CacheHits), int(c.CacheHits+c.GlobalLoads)))
	res.set("gpusim.host_ns_per_launch", float64(hostWall)/float64(c.Launches))
	res.set("gpusim.host_ns_per_kflop", float64(hostWall)/(float64(c.FLOPs)/1e3))
}

// sampleReplay times sampling.Sampler.Sample alone on the given batches.
func sampleReplay(res *result, ds *datasets.Dataset, cfg sampling.Config, batches [][]graph.VID) {
	s := sampling.New(ds.Graph, cfg)
	var ms []float64
	var verts, edges int
	for _, b := range batches {
		t0 := time.Now()
		out := s.Sample(b)
		ms = append(ms, float64(time.Since(t0))/1e6)
		verts += out.NumVertices()
		for _, h := range out.Hops {
			edges += len(h.SrcOrig)
		}
	}
	res.set("sampling.sample_ms", median(ms))
	res.set("sampling.vertices", float64(verts)/float64(len(batches)))
	res.set("sampling.edges", float64(edges)/float64(len(batches)))
}

// selfNotes adds each module's self time to the report.
func selfNotes(res *result, tc *tracer) {
	self := tc.selfTimes()
	mods := make([]string, 0, len(self))
	for mod := range self {
		mods = append(mods, mod)
	}
	sort.Strings(mods)
	for _, mod := range mods {
		res.notes = append(res.notes, fmt.Sprintf("self time %-10s %10.1f ms", mod, float64(self[mod])/1e6))
	}
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var s float64
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

func frac(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
