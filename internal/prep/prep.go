// Package prep implements GNN data preparation (§II-B, Fig 4b): graph
// reindexing (R), embedding lookup (K) and host→device transfer (T). The
// functions here are the building blocks both the serial baseline
// preprocessors and GraphTensor's pipelined service-wide tensor scheduler
// (internal/pipeline) compose.
package prep

import (
	"fmt"
	"sync"
	"time"

	"graphtensor/internal/cache"
	"graphtensor/internal/gpusim"
	"graphtensor/internal/graph"
	"graphtensor/internal/metrics"
	"graphtensor/internal/sampling"
	"graphtensor/internal/tensor"
	"graphtensor/internal/vidmap"
)

// Format selects the graph storage format(s) a framework wants on device.
type Format int

const (
	// FormatCOO ships the edge list; Graph-approach frameworks (DGL-like)
	// start from COO and translate at kernel time (Fig 5c).
	FormatCOO Format = iota
	// FormatCSR ships the dst-indexed layout (DL-approach, GNNAdvisor).
	FormatCSR
	// FormatCSRCSC ships both FWP and BWP layouts, GraphTensor's choice:
	// the translation happens once during preprocessing instead of on the
	// training critical path.
	FormatCSRCSC
)

// String names the format.
func (f Format) String() string {
	switch f {
	case FormatCOO:
		return "COO"
	case FormatCSR:
		return "CSR"
	case FormatCSRCSC:
		return "CSR+CSC"
	}
	return fmt.Sprintf("Format(%d)", int(f))
}

// LayerData is the device-resident graph structure of one GNN layer; which
// fields are populated depends on the requested Format.
type LayerData struct {
	COO *graph.BCOO
	CSR *graph.BCSR
	CSC *graph.BCSC
}

// Batch is a fully prepared training batch: per-layer device graphs plus
// the gathered per-batch embedding table.
type Batch struct {
	Sample *sampling.Result
	// Layers[ℓ-1] is the graph GNN layer ℓ processes (layer 1 first).
	Layers []LayerData
	// Embed is the device embedding table indexed by new VID.
	Embed *graph.EmbeddingTable
	// Labels[i] is the class of batch dst i (new VID i).
	Labels []int32

	DeviceBuffers []*gpusim.Buffer
	Breakdown     *metrics.Breakdown

	// CacheHits/CacheMisses count the batch's sampled vertices that were
	// resident / absent in the embedding cache consulted during
	// preprocessing (both zero without a cache). Residency only discounts
	// modeled K/T cost — the gathered embedding table is bit-for-bit the
	// same with and without a cache.
	CacheHits, CacheMisses int

	// SubBatches optionally carries the batch's data-parallel decomposition
	// (a *multigpu.BatchPlan; opaque here to avoid an import cycle). The
	// prefetch-ring producer attaches it so per-device sub-batch
	// construction overlaps the previous batch's compute, and the
	// DeviceGroup consumes it.
	SubBatches any

	// OnRelease, when set, runs once after the device buffers are freed.
	// The prefetch ring uses it to recycle the batch's arena-backed host
	// buffers; after it fires, the batch's Embed storage is invalid.
	OnRelease func()
}

// Release frees all device buffers the batch holds, then fires OnRelease.
func (b *Batch) Release() {
	for _, buf := range b.DeviceBuffers {
		buf.Free()
	}
	b.DeviceBuffers = nil
	if b.OnRelease != nil {
		hook := b.OnRelease
		b.OnRelease = nil
		hook()
	}
}

// ReindexCOO renumbers a sampled hop's edges into new-VID space using the
// hash table (the R task). The table must already contain every vertex the
// hop references.
func ReindexCOO(hop *sampling.Hop, table *vidmap.Table) (*graph.BCOO, error) {
	out := &graph.BCOO{
		NumDst: hop.NumDst,
		NumSrc: hop.NumSrc,
		Src:    make([]graph.VID, len(hop.SrcOrig)),
		Dst:    make([]graph.VID, len(hop.DstOrig)),
	}
	table.LookupBatch(hop.SrcOrig, out.Src)
	table.LookupBatch(hop.DstOrig, out.Dst)
	for i, v := range out.Src {
		if v < 0 {
			return nil, fmt.Errorf("prep: src VID %d not in hash table", hop.SrcOrig[i])
		}
	}
	for i, v := range out.Dst {
		if v < 0 {
			return nil, fmt.Errorf("prep: dst VID %d not in hash table", hop.DstOrig[i])
		}
	}
	return out, nil
}

// BuildLayer converts a reindexed COO hop into the requested device format.
// The translation cost is real work performed here (counting sort), exactly
// the work the Graph-approach defers to kernel time.
func BuildLayer(coo *graph.BCOO, format Format) LayerData {
	switch format {
	case FormatCOO:
		return LayerData{COO: coo}
	case FormatCSR:
		csr, _ := graph.BCOOToBCSR(coo)
		return LayerData{CSR: csr}
	case FormatCSRCSC:
		csr, _ := graph.BCOOToBCSR(coo)
		return LayerData{CSR: csr, CSC: graph.BCSRToBCSC(csr)}
	}
	panic(fmt.Sprintf("prep: unknown format %d", int(format)))
}

// Lookup gathers the embeddings of every sampled vertex into a new table
// indexed by new VID (the K task).
func Lookup(features *graph.EmbeddingTable, table *vidmap.Table) *graph.EmbeddingTable {
	return LookupArena(nil, features, table)
}

// LookupArena is Lookup with the output table drawn from a batch-scoped
// arena (nil falls back to a plain allocation).
func LookupArena(a *tensor.Arena, features *graph.EmbeddingTable, table *vidmap.Table) *graph.EmbeddingTable {
	vids := table.OrigSlice(0, table.Len())
	out := graph.NewEmbeddingTableArena(a, len(vids), features.Dim)
	features.GatherInto(out, vids, 0, len(vids))
	return out
}

// GraphBytes returns the device bytes layer structures occupy.
func GraphBytes(layers []LayerData) int64 {
	var n int64
	for _, l := range layers {
		if l.COO != nil {
			n += l.COO.Bytes()
		}
		if l.CSR != nil {
			n += l.CSR.Bytes()
		}
		if l.CSC != nil {
			n += l.CSC.Bytes()
		}
	}
	return n
}

// Config parameterizes a serial preprocessor.
type Config struct {
	Format Format
	Pinned bool // page-locked staging buffers for the T task
	// Arena, when non-nil, supplies the batch's host-side embedding
	// storage; the prefetch ring recycles it across batches through
	// Batch.OnRelease.
	Arena *tensor.Arena
	// Structs, when non-nil, is the slot's producer structure pool: the
	// sampler result, per-layer graph structures and label buffer are
	// checked out from it and reclaimed when the batch is released (see
	// Structs.ReleaseBatch). Reuse is shape-derived only, so the prepared
	// batch is bitwise identical to the allocating path.
	Structs *Structs
	// HostOnly skips the T task: the batch stays in host (pinned staging)
	// memory and owns no device buffers. The data-parallel DeviceGroup
	// prepares batches this way — each device then pays the PCIe scatter
	// for exactly its shards, so the input transfer is not double-counted
	// against an idle staging device.
	HostOnly bool
	// Cache, when non-nil, is the PaGraph-style embedding cache the K and T
	// tasks consult: resident vertices' embeddings are already device-held,
	// so the batch skips their modeled host→device transfer (the gather into
	// the staging table the simulator computes on still happens — residency
	// changes modeled cost only, never batch contents). Hit/miss counts are
	// recorded on the batch and in the cache's own statistics.
	Cache *cache.Cache
}

// Serial runs the classic serialized preprocessing chain
// S → R → K → T, one task after another (the discipline of the existing
// frameworks in Fig 12a whose latency GraphTensor attacks). It returns the
// prepared batch and records per-task durations in the breakdown.
func Serial(sampler *sampling.Sampler, features *graph.EmbeddingTable,
	labels []int32, dev *gpusim.Device, batchDsts []graph.VID, cfg Config) (*Batch, error) {

	bd := metrics.NewBreakdown()
	st := cfg.Structs

	t0 := time.Now()
	res := sampler.SampleReuse(batchDsts, st.TakeSample())
	bd.Add("sample", time.Since(t0))

	t0 = time.Now()
	st.EnsureLayers(len(res.Hops))
	layers := st.TakeLayerData(len(res.Hops))
	for l := 1; l <= len(res.Hops); l++ {
		ld, err := buildLayerReuse(res.ForLayer(l), res.Table, cfg.Format, st.layerAt(l-1))
		if err != nil {
			return nil, err
		}
		layers[l-1] = ld
	}
	bd.Add("reindex", time.Since(t0))

	t0 = time.Now()
	embed := LookupArena(cfg.Arena, features, res.Table)
	var hits, missed int
	if cfg.Cache != nil {
		hits, missed = cfg.Cache.CountResident(res.Table.OrigSlice(0, res.Table.Len()))
	}
	bd.Add("lookup", time.Since(t0))

	t0 = time.Now()
	batch := st.TakeBatch()
	batch.Sample, batch.Layers, batch.Embed, batch.Breakdown = res, layers, embed, bd
	batch.CacheHits, batch.CacheMisses = hits, missed
	if labels != nil {
		batch.Labels = st.TakeLabels(len(res.Batch))
		for i, orig := range res.Batch {
			batch.Labels[i] = labels[orig]
		}
	}
	if !cfg.HostOnly {
		if err := TransferArena(batch, dev, cfg.Pinned, cfg.Arena); err != nil {
			return nil, err
		}
	}
	bd.Add("transfer", time.Since(t0))
	return batch, nil
}

// TransferArena allocates device memory for the batch's graphs and
// embedding table and copies them over the modeled PCIe link (the T task),
// with the device-side host mirror drawn from a batch-scoped arena (nil
// falls back to a plain allocation). The modeled link time is paid to the
// wall clock through a LinkThrottle so pipeline overlap experiments
// observe realistic transfer occupancy. Cache-resident embedding rows
// (b.CacheHits of them) are already device-held and cross the link for
// free; the host mirror is still fully populated, so batch contents never
// depend on residency.
func TransferArena(b *Batch, dev *gpusim.Device, pinned bool, a *tensor.Arena) error {
	pcie := dev.PCIe()
	gBytes := GraphBytes(b.Layers)
	gbuf, err := dev.Alloc(gBytes, "batch-graphs")
	if err != nil {
		return err
	}
	b.DeviceBuffers = append(b.DeviceBuffers, gbuf)
	d := pcie.TransferBytes(gBytes, pinned)

	ebuf, err := dev.Alloc(b.Embed.Bytes(), "batch-embeddings")
	if err != nil {
		return err
	}
	b.DeviceBuffers = append(b.DeviceBuffers, ebuf)
	deviceCopy := graph.NewEmbeddingTableArena(a, b.Embed.NumVertices(), b.Embed.Dim)
	copy(deviceCopy.Data.Data, b.Embed.Data.Data)
	d += pcie.TransferStaged(b.Embed.Data.Data, MissBytes(b), pinned)
	b.Embed = deviceCopy
	var link LinkThrottle
	link.Pay(d)
	link.Flush()
	return nil
}

// MissBytes returns the host→device embedding payload of the batch: every
// sampled vertex's row minus the cache-resident ones. Without a cache it is
// simply the whole table.
func MissBytes(b *Batch) int64 {
	rows := b.Embed.NumVertices() - b.CacheHits
	if rows < 0 {
		rows = 0
	}
	return int64(rows) * int64(b.Embed.Dim) * 4
}

// LinkThrottle converts modeled PCIe transfer time into wall-clock delay.
// DMA engines move data without occupying a CPU core, so the delay is a
// sleep — concurrent preprocessing subtasks keep running during the
// transfer, exactly the overlap the service-wide tensor scheduler
// exploits. Because the host's sleep granularity is coarse (≈1 ms on small
// VMs), the throttle accumulates debt and sleeps in large quanta; Flush
// pays whatever remains.
type LinkThrottle struct {
	mu   sync.Mutex
	debt time.Duration
}

// Quantum is the minimum sleep the throttle issues before Flush.
const throttleQuantum = 2 * time.Millisecond

// Pay accrues modeled transfer time, sleeping when enough debt gathered.
func (l *LinkThrottle) Pay(d time.Duration) {
	if d <= 0 {
		return
	}
	l.mu.Lock()
	l.debt += d
	due := l.debt
	if due < throttleQuantum {
		l.mu.Unlock()
		return
	}
	l.debt = 0
	l.mu.Unlock()
	sleepAccurate(due)
}

// Flush pays any remaining debt.
func (l *LinkThrottle) Flush() {
	l.mu.Lock()
	due := l.debt
	l.debt = 0
	l.mu.Unlock()
	sleepAccurate(due)
}

// sleepAccurate sleeps for d; overshoot from coarse host timers is
// accepted — it affects every preprocessing discipline equally because all
// of them pay the link through the same throttle quanta.
func sleepAccurate(d time.Duration) {
	if d <= 0 {
		return
	}
	time.Sleep(d)
}
