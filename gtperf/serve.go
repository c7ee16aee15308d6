package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"graphtensor/internal/cache"
	"graphtensor/internal/datasets"
	"graphtensor/internal/frameworks"
	"graphtensor/internal/gpusim"
	"graphtensor/internal/graph"
	"graphtensor/internal/pipeline"
	"graphtensor/internal/prep"
	"graphtensor/internal/serve"
)

// serve-open: forward-only serving of products with 2 replicas and a
// degree cache holding 10% of the vertices. Queries are 16 distinct dsts
// drawn Zipf-skewed over a seeded vertex permutation, so hot vertices are
// shared across queries. Every VID is in range.
const (
	queryDsts  = 16
	lowRate    = 1000.0 // q/s: ~2 queries per micro-batch
	highRate   = 6000.0 // q/s: ~7 queries per micro-batch
	window     = 64     // outstanding queries in the closed loop
	waiters    = 64     // goroutines completing open-loop tickets
	checkOneIn = 50     // one open-loop query in this many is re-served solo
	lateAfter  = time.Millisecond
)

type serveRun struct {
	seed  uint64
	ds    *datasets.Dataset
	tr    *frameworks.Trainer
	cache *cache.Cache
	srv   *serve.Server
	perm  []graph.VID
	// bufs recycles logit buffers between the generator and the waiters;
	// its capacity bounds the open loop's outstanding queries.
	bufs chan []float32
	// Set-up phase wall times (traced runs only).
	generate, profile time.Duration
}

func setupServe(seed uint64, tc *tracer) (runner, error) {
	root := tc.begin("serve.setup", -1, -1, 0)
	defer tc.end(root)
	r := &serveRun{seed: seed}
	t0 := time.Now()
	ds, err := datasets.Generate("products", datasets.DefaultScale())
	if err != nil {
		return nil, err
	}
	r.generate = time.Since(t0)
	tc.add("datasets.generate", t0, t0.Add(r.generate), root, -1, 0)
	r.ds = ds

	opt := frameworks.DefaultOptions()
	opt.Seed, opt.NumDevices = seed, 1
	t0 = time.Now()
	if r.tr, err = frameworks.New(frameworks.PreproGT, ds, opt); err != nil {
		return nil, err
	}
	r.profile = time.Since(t0)
	tc.add("dkp.profile", t0, t0.Add(r.profile), root, -1, 0)

	sp := tc.begin("serve.construct", root, -1, 0)
	r.cache = cache.New(ds.NumVertices()/10, cache.Degree, ds.Graph)
	cfg := serve.DefaultConfig()
	// No more replicas than cores, so the open loop's generator is never
	// starved by the system it measures.
	cfg.Replicas = min(2, runtime.NumCPU())
	cfg.Cache = r.cache
	if r.srv, err = serve.NewServer(r.tr, cfg); err != nil {
		return nil, err
	}
	tc.end(sp)

	rng := rand.New(rand.NewSource(int64(seed)))
	r.perm = make([]graph.VID, ds.NumVertices())
	for i, v := range rng.Perm(ds.NumVertices()) {
		r.perm[i] = graph.VID(v)
	}
	od := r.srv.OutDim()
	r.bufs = make(chan []float32, 2048)
	for i := 0; i < cap(r.bufs); i++ {
		r.bufs <- make([]float32, queryDsts*od)
	}
	sp = tc.begin("serve.warmup", root, -1, 0)
	defer tc.end(sp)
	if _, err := r.closed(512, 0, 99, nil, -1); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func (r *serveRun) close() { r.srv.Close() }

// queryGen draws a seeded query stream.
type queryGen struct {
	zipf *rand.Zipf
	perm []graph.VID
	seen map[graph.VID]bool
}

func newQueryGen(seed, stream uint64, perm []graph.VID) *queryGen {
	rng := rand.New(rand.NewSource(int64(seed*1_000_003 + stream)))
	return &queryGen{zipf: rand.NewZipf(rng, 1.01, 1, uint64(len(perm)-1)), perm: perm,
		seen: make(map[graph.VID]bool, queryDsts)}
}

// next returns queryDsts distinct in-range VIDs, ascending.
func (g *queryGen) next() []graph.VID {
	clear(g.seen)
	q := make([]graph.VID, 0, queryDsts)
	for len(q) < queryDsts {
		v := g.perm[g.zipf.Uint64()]
		if !g.seen[v] {
			g.seen[v] = true
			q = append(q, v)
		}
	}
	sort.Slice(q, func(i, j int) bool { return q[i] < q[j] })
	return q
}

// served is a query kept for the solo re-serve check.
type served struct {
	dsts   []graph.VID
	logits []float32
}

// phase is one open- or closed-loop phase's observations.
type phase struct {
	lat       []time.Duration // completion minus due time
	queries   int
	failed    int
	wall      time.Duration
	lateMax   time.Duration
	late      int
	kept      []served
	meanBatch float64
	done      []time.Duration // closed loop: completion offsets from the start
}

// rate is a closed phase's completed queries per second: the median over
// its whole 250 ms windows, so a transient stall moves one window rather
// than the rate.
func (ph *phase) rate() float64 {
	const win = 250 * time.Millisecond
	n := int(ph.wall / win)
	if n < 1 {
		return float64(len(ph.done)) / ph.wall.Seconds()
	}
	counts := make([]float64, n)
	for _, d := range ph.done {
		if i := int(d / win); i < n {
			counts[i]++
		}
	}
	return median(counts) / win.Seconds()
}

type pending struct {
	tk   *serve.Ticket
	due  time.Time
	dsts []graph.VID
	out  []float32
	id   int64
}

// open runs an open loop: one generator goroutine submits seeded Poisson
// arrivals at rate for dur, and each query's latency runs from the time it
// was due, so a stalled generator or server is charged to every query it
// delays.
func (r *serveRun) open(rate float64, dur time.Duration, stream uint64, tc *tracer, root int32) *phase {
	ph := &phase{}
	gen := newQueryGen(r.seed, stream, r.perm)
	arrivals := rand.New(rand.NewSource(int64(r.seed*7919 + stream)))
	// Sized to hold every outstanding query the logit buffers allow, so
	// the generator never blocks on the waiters.
	work := make(chan pending, cap(r.bufs))
	var mu sync.Mutex
	var wg sync.WaitGroup
	wg.Add(waiters)
	for w := 0; w < waiters; w++ {
		go func() {
			defer wg.Done()
			var lat []time.Duration
			var failed int
			var kept []served
			for p := range work {
				err := p.tk.Wait()
				done := time.Now()
				tc.add("serve.query", p.due, done, root, p.id, 0)
				if err != nil {
					failed++
				} else {
					lat = append(lat, done.Sub(p.due))
					if p.id%checkOneIn == 0 {
						kept = append(kept, served{p.dsts, append([]float32(nil), p.out...)})
					}
				}
				r.bufs <- p.out
			}
			mu.Lock()
			ph.lat = append(ph.lat, lat...)
			ph.failed += failed
			ph.kept = append(ph.kept, kept...)
			mu.Unlock()
		}()
	}
	start := time.Now()
	var off time.Duration
	for id := int64(0); ; id++ {
		off += time.Duration(arrivals.ExpFloat64() / rate * 1e9)
		if off >= dur {
			break
		}
		due := start.Add(off)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		q := gen.next()
		out := <-r.bufs
		sub := time.Now()
		l := sub.Sub(due)
		ph.lateMax = max(ph.lateMax, l)
		if l > lateAfter {
			ph.late++
		}
		tk, err := r.srv.Submit(q, out)
		tc.add("serve.submit", sub, time.Now(), root, id, 1)
		ph.queries++
		if err != nil {
			ph.failed++
			r.bufs <- out
			continue
		}
		work <- pending{tk, due, q, out, id}
	}
	close(work)
	wg.Wait()
	ph.wall = time.Since(start)
	return ph
}

// closed keeps window queries outstanding — each of window clients
// submits its next query when the previous completes — until n queries
// have been issued (n > 0) or dur has passed.
func (r *serveRun) closed(n int, dur time.Duration, stream uint64, tc *tracer, root int32) (*phase, error) {
	ph := &phase{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	var issued int
	start := time.Now()
	deadline := start.Add(dur)
	wg.Add(window)
	for c := 0; c < window; c++ {
		go func(c int) {
			defer wg.Done()
			gen := newQueryGen(r.seed, stream*window+uint64(c), r.perm)
			out := make([]float32, queryDsts*r.srv.OutDim())
			var lat, doneAt []time.Duration
			var failed, count int
			for {
				mu.Lock()
				stop := (n > 0 && issued >= n) || (n == 0 && !time.Now().Before(deadline))
				issued++
				mu.Unlock()
				if stop {
					break
				}
				q := gen.next()
				t0 := time.Now()
				tk, err := r.srv.Submit(q, out)
				if err == nil {
					err = tk.Wait()
				}
				done := time.Now()
				tc.add("serve.query", t0, done, root, int64(c)<<32|int64(count), 0)
				count++
				if err != nil {
					failed++
				} else {
					lat = append(lat, done.Sub(t0))
					doneAt = append(doneAt, done.Sub(start))
				}
			}
			mu.Lock()
			ph.lat = append(ph.lat, lat...)
			ph.done = append(ph.done, doneAt...)
			ph.queries += count
			ph.failed += failed
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	ph.wall = time.Since(start)
	if ph.failed > 0 {
		return ph, fmt.Errorf("closed loop: %d of %d queries failed", ph.failed, ph.queries)
	}
	return ph, nil
}

// batchDelta is the mean micro-batch size (distinct dsts) the server cut
// between two stats snapshots.
func batchDelta(a, b serve.Stats) float64 {
	n := b.Batches - a.Batches
	if n <= 0 {
		return 0
	}
	return (b.MeanBatch*float64(b.Batches) - a.MeanBatch*float64(a.Batches)) / float64(n)
}

func (r *serveRun) run(budget time.Duration, tc *tracer, res *result) error {
	defer r.close()
	part := func(f float64) time.Duration { return time.Duration(f * float64(budget)) }
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	st0 := r.srv.Stats()
	openRoot := tc.begin("loadgen.open", -1, -1, 0)
	low := r.open(lowRate, part(0.4), 1, tc, openRoot)
	st1 := r.srv.Stats()
	high := r.open(highRate, part(0.35), 2, tc, openRoot)
	st2 := r.srv.Stats()
	tc.end(openRoot)
	runtime.ReadMemStats(&ms1)
	res.op(low.queries+high.queries, low.failed+high.failed)
	low.meanBatch, high.meanBatch = batchDelta(st0, st1), batchDelta(st1, st2)

	// Closed loop. A traced run alternates untraced and traced quarters of
	// the phase, so drift over the run cancels out of the tracing overhead.
	var sat, plain []*phase
	n := 1
	if tc != nil {
		n = 4
	}
	for i := 0; i < n; i++ {
		on := tc != nil && i%2 == 1
		var ptc *tracer
		root := int32(-1)
		if on {
			ptc, root = tc, tc.begin("loadgen.closed", -1, int64(i), 0)
		}
		ph, err := r.closed(0, part(0.25)/time.Duration(n), 3+uint64(i), ptc, root)
		tc.end(root)
		if err != nil {
			return err
		}
		res.op(ph.queries, 0)
		if tc != nil && !on {
			plain = append(plain, ph)
		} else {
			sat = append(sat, ph)
		}
	}
	st3 := r.srv.Stats()
	if tc == nil {
		res.set("peak_rss_mb", peakRSSMB())
	}
	r.srv.Close()

	// Every kept query's served logits must equal solo Trainer.Serve of
	// the same query bit for bit. The solo pass also gives the modeled
	// service figures, and a second pass must repeat them exactly.
	r.tr.SetCache(r.cache)
	slot := pipeline.NewSlot()
	kept := append(low.kept, high.kept...)
	var passes [2]soloModel
	for pass := range passes {
		for _, q := range kept {
			logits, b, mod, err := r.soloServe(q.dsts, slot)
			if err != nil {
				return err
			}
			if pass == 0 {
				res.check(bitsEqual(q.logits, logits), "served logits of query %v differ from solo Trainer.Serve", q.dsts)
			}
			passes[pass].add(mod)
			slot.Recycle(b)
		}
	}
	res.check(len(kept) > 0 && passes[0] == passes[1],
		"modeled service figures differ across two solo passes of %d queries:\n  %+v\n  %+v", len(kept), passes[0], passes[1])
	lowP50 := median(durMs(low.lat))
	res.notes = append(res.notes, fmt.Sprintf("open loop: low %d q (batch %.1f dsts, p50 %.3f ms), high %d q (batch %.1f dsts, p50 %.3f ms), closed %.0f q/s; %d logits checked",
		low.queries, low.meanBatch, lowP50, high.queries, high.meanBatch, median(durMs(high.lat)),
		meanRate(sat), len(kept)))
	if tc == nil {
		res.set("throughput_per_s", meanRate(sat))
		res.set("latency_p50_ms", lowP50)
		res.set("modeled_us", float64(passes[0].total())/1e3/float64(len(kept)))
		return nil
	}
	return r.perLayer(res, tc, slot, low, high, meanRate(sat), meanRate(plain), st3, openRoot, &ms0, &ms1)
}

// meanRate is the mean closed-loop rate over phases.
func meanRate(phs []*phase) float64 {
	var s float64
	for _, ph := range phs {
		s += ph.rate()
	}
	return s / float64(len(phs))
}

// soloModel is one solo-served batch's modeled device time.
type soloModel struct {
	prep, kernels, transfer time.Duration
	tasks                   pipeline.TaskTimes
	counters                gpusim.Counters
}

func (m soloModel) total() time.Duration { return m.prep + m.kernels + m.transfer }

func (m *soloModel) add(o soloModel) {
	m.prep += o.prep
	m.kernels += o.kernels
	m.transfer += o.transfer
	m.tasks.Sample += o.tasks.Sample
	m.tasks.Reindex += o.tasks.Reindex
	m.tasks.Lookup += o.tasks.Lookup
	m.tasks.Transfer += o.tasks.Transfer
	m.counters = addCounters(m.counters, o.counters)
}

// soloServe serves dsts alone through Trainer.Serve and returns the logit
// rows in dsts order, the prepared batch (released) and its modeled time.
func (r *serveRun) soloServe(dsts []graph.VID, slot *pipeline.Slot) ([]float32, *prep.Batch, soloModel, error) {
	dev := r.tr.Engine.Dev
	before := dev.Snapshot()
	logits, b, err := r.tr.Serve(dsts, slot)
	if err != nil {
		return nil, nil, soloModel{}, err
	}
	var m soloModel
	m.counters = dev.Snapshot().Sub(before)
	m.kernels = dev.Estimate(gpusim.DefaultKernelTimeModel(), m.counters)
	m.prep = r.tr.ModeledPrep(b)
	m.tasks = r.tr.ModeledTaskTimes(b)
	m.transfer = dev.PCIe().TransferBytes(prep.MissBytes(b)+prep.GraphBytes(b.Layers), r.tr.Pinned())
	out := make([]float32, 0, len(dsts)*logits.M.Cols)
	for i := range dsts {
		out = append(out, logits.M.Row(i)...)
	}
	logits.Free()
	b.Release()
	return out, b, m, nil
}

func bitsEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// perLayer reports the traced run's per-layer metrics. Probe batches the
// size of the low phase's mean micro-batch are served solo to time
// sampling, preparation and inference one call at a time.
func (r *serveRun) perLayer(res *result, tc *tracer, slot *pipeline.Slot, low, high *phase, traced, plain float64,
	st serve.Stats, openRoot int32, ms0, ms1 *runtime.MemStats) error {
	k := max(1, int(math.Round(low.meanBatch/queryDsts)))
	gen := newQueryGen(r.seed, 4, r.perm)
	var probes [][]graph.VID
	for i := 0; i < 24; i++ {
		set := map[graph.VID]bool{}
		var d []graph.VID
		for j := 0; j < k; j++ {
			for _, v := range gen.next() {
				if !set[v] {
					set[v] = true
					d = append(d, v)
				}
			}
		}
		sort.Slice(d, func(a, b int) bool { return d[a] < d[b] })
		probes = append(probes, d)
	}
	probeRoot := tc.begin("serve.probe", -1, -1, 0)
	var prepWall, serveWall time.Duration
	var inferMs []float64
	var acc soloModel
	for i, d := range probes {
		t0 := time.Now()
		b, err := r.tr.PrepareInto(d, nil, slot)
		t1 := time.Now()
		tc.add("prep.prepare", t0, t1, probeRoot, int64(i), 0)
		if err != nil {
			return err
		}
		b.Release()
		slot.Recycle(b)
		_, b, m, err := r.soloServe(d, slot)
		t2 := time.Now()
		tc.add("serve.infer", t1, t2, probeRoot, int64(i), 0)
		if err != nil {
			return err
		}
		slot.Recycle(b)
		prepWall += t1.Sub(t0)
		serveWall += t2.Sub(t1)
		inferMs = append(inferMs, float64(t2.Sub(t1))/1e6)
		acc.add(m)
	}
	tc.end(probeRoot)
	n := float64(len(probes))
	us := func(d time.Duration) float64 { return float64(d) / 1e3 / n }

	res.set("datasets.generate_s", r.generate.Seconds())
	res.set("dkp.profile_s", r.profile.Seconds())
	var aggr, comb int
	for _, p := range st.Placements {
		aggr += p.AggrFirst
		comb += p.CombFirst
	}
	res.set("dkp.comb_first_frac", frac(comb, aggr+comb))
	sampleReplay(res, r.ds, r.tr.SamplerConfig(), probes)
	res.set("prep.prepare_ms", median(durMs(tc.durations("prep.prepare"))))
	res.set("prep.modeled_s_us", us(acc.tasks.Sample))
	res.set("prep.modeled_r_us", us(acc.tasks.Reindex))
	res.set("prep.modeled_k_us", us(acc.tasks.Lookup))
	res.set("prep.modeled_t_us", us(acc.tasks.Transfer))
	// Serve's wall minus a separate prepare of the same batch approximates
	// the inference (kernel) wall the simulator spent.
	setCounters(res, acc.counters, len(probes), max(0, serveWall-prepWall))
	res.set("host.allocs_per_query", float64(ms1.Mallocs-ms0.Mallocs)/float64(low.queries+high.queries))
	res.set("host.gc_cycles", float64(ms1.NumGC-ms0.NumGC))
	res.set("host.gc_pause_ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6)
	res.set("cache.hit_rate", st.CacheHitRate)
	res.set("serve.modeled_transfer_us", us(acc.transfer))
	res.set("serve.submit_us", median(durMs(tc.durations("serve.submit")))*1e3)
	res.set("serve.mean_batch_dsts_low", low.meanBatch)
	res.set("serve.mean_batch_dsts_high", high.meanBatch)
	var stolen int
	for _, s := range st.PerShard {
		stolen += s.Stolen
	}
	res.set("serve.stolen_frac", frac(stolen, st.Batches))
	res.set("serve.expired", float64(st.Expired))
	res.set("serve.failed_over", float64(st.FailedOver))
	res.set("serve.infer_ms", median(inferMs))
	res.set("serve.wait_ms", median(durMs(low.lat))-median(inferMs))
	res.set("serve.query_p50_ms_high", median(durMs(high.lat)))
	res.set("serve.query_p99_ms_low", quantile(durMs(low.lat), 0.99))
	res.set("serve.query_p99_ms_high", quantile(durMs(high.lat), 0.99))
	res.set("loadgen.late_ms_max", float64(max(low.lateMax, high.lateMax))/1e6)
	res.set("loadgen.late_frac", frac(low.late+high.late, low.queries+high.queries))
	res.set("trace.coverage", tc.coverage(openRoot))
	res.set("trace.overhead_frac", 1-traced/plain)
	for _, name := range trainOnly {
		res.set(name, 0)
	}
	selfNotes(res, tc)
	return nil
}

func addCounters(a, b gpusim.Counters) gpusim.Counters {
	a.FLOPs += b.FLOPs
	a.GlobalLoads += b.GlobalLoads
	a.GlobalStores += b.GlobalStores
	a.CacheHits += b.CacheHits
	a.CacheBytes += b.CacheBytes
	a.Launches += b.Launches
	return a
}
