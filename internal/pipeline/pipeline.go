// Package pipeline implements GraphTensor's service-wide tensor scheduler
// (§V-B): the preprocessing pipeline that splits neighbor sampling (S),
// graph reindexing (R), embedding lookup (K) and host→device transfer (T)
// into per-layer, per-data-type subtasks and executes them with maximum
// parallelism under their true dependencies:
//
//   - S subtasks chain hop-by-hop (S for hop t needs hop t-1's frontier),
//     with the algorithm part (A) parallelized across workers and the hash
//     table update part (H) serialized to relax lock contention (Fig 14c).
//   - R and K subtasks for hop t start as soon as S_t completes and run
//     concurrently with the sampling of later hops — they touch different
//     data types (subgraphs vs embeddings), so they share no locks.
//   - T subtasks wait on a barrier for the final S (device allocation needs
//     the total vertex count), then stream: each embedding chunk gathered
//     by K transfers as soon as it is ready, from page-locked buffers, in
//     a pipelined manner (Fig 14b).
//
// The package also provides the baseline disciplines the paper compares
// against: the fully serial chain, the multi-threaded-sampling variant,
// and a SALIENT-style pinned-memory overlap preprocessor.
package pipeline

import (
	"fmt"
	"runtime"
	"time"

	"graphtensor/internal/cache"
	"graphtensor/internal/gpusim"
	"graphtensor/internal/graph"
	"graphtensor/internal/metrics"
	"graphtensor/internal/prep"
	"graphtensor/internal/sampling"
	"graphtensor/internal/tensor"
)

// Config parameterizes the service-wide tensor scheduler.
type Config struct {
	Sampler sampling.Config
	Format  prep.Format
	// Pinned uses page-locked staging for T (GraphTensor always does).
	Pinned bool
	// ChunkVertices is the K→T pipelining granularity.
	ChunkVertices int
	// RelaxContention enables the A/H split and S/R serialization against
	// the hash table (Fig 14c). Disabling it reproduces the contended
	// discipline of Fig 14a.
	RelaxContention bool
	// HostOnly skips the T subtasks: batches stay in host staging memory
	// with no device buffers (see prep.Config.HostOnly — the data-parallel
	// DeviceGroup's discipline, where each device transfers its own
	// shards, and the serving engine's, where each replica pays the
	// miss-only scatter itself). K chunks still stream into the assembled
	// table as they land. A HostOnly scheduler never touches its device and
	// may be built with a nil one.
	HostOnly bool
	// Workers bounds the scheduler's concurrent subtasks (0 = GOMAXPROCS):
	// it is the size of the persistent subtask-engine worker set all
	// Prepare calls on the scheduler share.
	Workers int
	// Cache, when non-nil, is the PaGraph-style embedding cache the K and T
	// subtasks consult: resident vertices are gathered into the staging
	// table as usual (batch contents never depend on residency) but skip
	// the modeled host→device transfer, and the batch records its hit/miss
	// counts (see prep.Batch.CacheHits).
	Cache *cache.Cache
}

// DefaultConfig returns the scheduler configuration GraphTensor ships.
func DefaultConfig() Config {
	return Config{
		Sampler:         sampling.DefaultConfig(),
		Format:          prep.FormatCSRCSC,
		Pinned:          true,
		ChunkVertices:   512,
		RelaxContention: true,
	}
}

// Scheduler prepares training batches with pipelined preprocessing. The
// sampler is persistent (it owns the pooled per-hop worker scratch), the
// subtask engine is persistent (a parked worker set executing pooled R/K
// descriptors — see subtaskEngine), and the scheduler is safe for
// concurrent Prepare calls, each drawing its own pooled run state.
type Scheduler struct {
	cfg      Config
	full     *graph.CSR
	features *graph.EmbeddingTable
	labels   []int32
	dev      *gpusim.Device
	sampler  *sampling.Sampler
	engine   *subtaskEngine
}

// NewScheduler builds a scheduler over a dataset's full graph and features.
// dev may be nil for a HostOnly scheduler.
func NewScheduler(full *graph.CSR, features *graph.EmbeddingTable, labels []int32,
	dev *gpusim.Device, cfg Config) *Scheduler {
	if cfg.ChunkVertices <= 0 {
		cfg.ChunkVertices = 512
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if !cfg.RelaxContention {
		cfg.Sampler.Mode = sampling.ModeShared
	}
	return &Scheduler{cfg: cfg, full: full, features: features, labels: labels, dev: dev,
		sampler: sampling.New(full, cfg.Sampler), engine: newSubtaskEngine(cfg.Workers)}
}

// SetCache installs (or, with nil, removes) the embedding cache the K/T
// subtasks consult. Must not race a Prepare in flight.
func (s *Scheduler) SetCache(c *cache.Cache) { s.cfg.Cache = c }

// Close retires the scheduler's persistent subtask workers. Call it when a
// short-lived scheduler (e.g. a serving engine's) is done; no Prepare may
// be in flight or follow. Long-lived trainer schedulers never need it.
func (s *Scheduler) Close() { s.engine.close() }

// Prepare runs the pipelined preprocessing for one batch. The optional
// timeline receives progress events (Fig 20); pass nil to skip recording.
func (s *Scheduler) Prepare(batchDsts []graph.VID, tl *metrics.Timeline) (*prep.Batch, error) {
	return s.PrepareSlot(batchDsts, tl, nil)
}

// PrepareSlot is Prepare drawing the batch's storage from a prefetch-ring
// slot: the dense host buffers from the slot's arena, and the producer
// structures (sampler result, per-layer graphs, labels) from its structure
// pool — so steady-state preprocessing recycles everything it builds
// instead of reallocating it. A nil slot falls back to plain allocation.
func (s *Scheduler) PrepareSlot(batchDsts []graph.VID, tl *metrics.Timeline, slot *Slot) (*prep.Batch, error) {
	return s.prepare(batchDsts, tl, slot.TensorArena(), slot.StructPool())
}

func (s *Scheduler) prepare(batchDsts []graph.VID, tl *metrics.Timeline,
	arena *tensor.Arena, structs *prep.Structs) (*prep.Batch, error) {
	bd := metrics.NewBreakdown()
	L := s.cfg.Sampler.Layers
	dim := s.features.Dim

	// Per-prepare state comes from the engine's pool; the layer chain and
	// its retained structure buffers are sized here, on the driving
	// goroutine, before any R subtask spawns — afterwards each R subtask
	// touches only its own layer's entry and retained buffer.
	s.engine.start()
	r := s.engine.getRun(s, bd, tl, structs)
	structs.EnsureLayers(L)
	r.layers = structs.TakeLayerData(L)

	run := s.sampler.BeginReuse(batchDsts, structs.TakeSample())
	res := run.Result()
	r.table = res.Table

	// --- S chain: hop-by-hop sampling on the preparing goroutine; R and K
	// subtasks are handed to the persistent engine the moment their hop is
	// available and overlap the sampling of later hops. Driving S inline
	// costs no overlap: T cannot start before the final S anyway (§V-B —
	// device allocation needs the total vertex count), so the old per-batch
	// S goroutine and its hop-done barrier channels bought nothing.
	for t := 0; t < L; t++ {
		st := time.Now()
		hop := run.Step()
		bd.Add("sample", time.Since(st))
		r.record("sample", res.FrontierSizes[t+1], -1)

		// R_t: hop t (0-based) is processed by GNN layer L-t (1-based),
		// i.e. layers[L-1-t].
		r.spawnReindex(L-1-t, hop)

		// K_t: gather the embeddings of the vertices this hop added, in
		// pipeline chunks. Read-only view: the K chunks only index below
		// hi, which is already assigned, so later concurrent insertions
		// are harmless.
		lo := res.FrontierSizes[t]
		hi := res.FrontierSizes[t+1]
		if t == 0 {
			lo = 0 // include the batch vertices themselves
		}
		origs := res.Table.OrigSlice(0, res.Table.Len())
		for c := lo; c < hi; c += s.cfg.ChunkVertices {
			cHi := c + s.cfg.ChunkVertices
			if cHi > hi {
				cHi = hi
			}
			r.spawnLookup(origs, c, cHi)
		}
	}

	// --- T: every hop is sampled; allocate device memory and stream the
	// chunks (pinned) plus the graph structures while the K subtasks drain.
	nTotal := res.NumVertices()

	st := time.Now()
	embed := graph.NewEmbeddingTableArena(arena, nTotal, dim)
	var ebuf *gpusim.Buffer
	var pcie *gpusim.PCIe
	if !s.cfg.HostOnly {
		pcie = s.dev.PCIe()
		var err error
		ebuf, err = s.dev.Alloc(embed.Bytes(), "batch-embeddings")
		if err != nil {
			r.wg.Wait()
			r.releaseStaged()
			s.engine.putRun(r)
			return nil, err
		}
	}
	bd.Add("transfer", time.Since(st))

	// Stream chunks as they land; the K subtasks keep producing while we
	// transfer (Fig 14b overlap). A single throttle accrues the modeled
	// link time across chunks, so the scheduler only pays the aggregate
	// transfer latency once — and pays it while K keeps producing.
	// Cache-resident rows are already device-held: each chunk pays the
	// link for its misses only.
	var link prep.LinkThrottle
	transferred, cacheHits := 0, 0
	for transferred < nTotal {
		pending := r.takePending()
		if len(pending) == 0 {
			if r.failed() {
				break
			}
			runtime.Gosched()
			continue
		}
		for _, ch := range pending {
			st := time.Now()
			rows := ch.hi - ch.lo
			copy(embed.Data.Data[ch.lo*dim:ch.hi*dim], ch.data.Data[:rows*dim])
			if !s.cfg.HostOnly {
				link.Pay(pcie.TransferBytes(int64(rows-ch.hits)*int64(dim)*4, s.cfg.Pinned))
			}
			tensor.Put(ch.data)
			bd.Add("transfer", time.Since(st))
			transferred += rows
			cacheHits += ch.hits
			r.record("transfer", transferred, nTotal)
		}
	}

	r.wg.Wait()
	if err := r.takeErr(); err != nil {
		r.releaseStaged()
		ebuf.Free()
		s.engine.putRun(r)
		return nil, err
	}

	// Graph structures transfer after the R subtasks complete.
	st = time.Now()
	layers := r.layers
	var bufs []*gpusim.Buffer
	if !s.cfg.HostOnly {
		gBytes := prep.GraphBytes(layers)
		gbuf, err := s.dev.Alloc(gBytes, "batch-graphs")
		if err != nil {
			ebuf.Free()
			s.engine.putRun(r)
			return nil, err
		}
		link.Pay(pcie.TransferBytes(gBytes, s.cfg.Pinned))
		link.Flush()
		bufs = []*gpusim.Buffer{ebuf, gbuf}
	}
	bd.Add("transfer", time.Since(st))
	r.record("transfer", nTotal, nTotal)
	s.engine.putRun(r)

	batch := structs.TakeBatch()
	batch.Sample, batch.Layers, batch.Embed = res, layers, embed
	batch.Breakdown, batch.DeviceBuffers = bd, bufs
	if s.cfg.Cache != nil {
		batch.CacheHits, batch.CacheMisses = cacheHits, nTotal-cacheHits
	}
	if s.labels != nil {
		batch.Labels = structs.TakeLabels(len(res.Batch))
		for i, orig := range res.Batch {
			batch.Labels[i] = s.labels[orig]
		}
	}
	return batch, nil
}

// Serial runs the fully serialized baseline chain (S → R → K → T) used by
// the existing frameworks (Fig 12a) with a fresh sampler over full. The
// sampler config's worker count controls sampling threads: 1 reproduces
// PyG's single-threaded sampler, GOMAXPROCS the multi-threaded variants.
// cfg carries the format, pinning, host-only staging and the optional
// arena and structure pool.
func Serial(full *graph.CSR, features *graph.EmbeddingTable, labels []int32,
	dev *gpusim.Device, batchDsts []graph.VID, samplerCfg sampling.Config,
	cfg prep.Config) (*prep.Batch, error) {
	sampler := sampling.New(full, samplerCfg)
	return prep.Serial(sampler, features, labels, dev, batchDsts, cfg)
}

// String describes the scheduler configuration.
func (s *Scheduler) String() string {
	return fmt.Sprintf("pipeline.Scheduler{layers=%d fanout=%d format=%v pinned=%v chunk=%d relaxed=%v}",
		s.cfg.Sampler.Layers, s.cfg.Sampler.Fanout, s.cfg.Format, s.cfg.Pinned, s.cfg.ChunkVertices, s.cfg.RelaxContention)
}
