package pipeline

import (
	"sort"
	"testing"

	"graphtensor/internal/datasets"
	"graphtensor/internal/gpusim"
	"graphtensor/internal/graph"
	"graphtensor/internal/metrics"
	"graphtensor/internal/prep"
	"graphtensor/internal/sampling"
)

func testDataset(t *testing.T) *datasets.Dataset {
	t.Helper()
	ds, err := datasets.Generate("products", datasets.TestScale())
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func testDevice() *gpusim.Device {
	cfg := gpusim.DefaultConfig()
	cfg.NumSMs = 8
	return gpusim.NewDevice(cfg)
}

// TestPipelinedEqualsSerial: the service-wide tensor scheduler must produce
// a batch semantically identical to the serial chain — same sampled
// vertex set, same per-layer graphs, same embeddings.
func TestPipelinedEqualsSerial(t *testing.T) {
	ds := testDataset(t)
	dsts := ds.BatchDsts(40, 7)
	samplerCfg := sampling.DefaultConfig()
	samplerCfg.Seed = 3

	serialBatch, err := Serial(ds.Graph, ds.Features, ds.Labels, testDevice(), dsts, samplerCfg,
		prep.Config{Format: prep.FormatCSRCSC, Pinned: true})
	if err != nil {
		t.Fatal(err)
	}

	cfg := DefaultConfig()
	cfg.Sampler = samplerCfg
	cfg.ChunkVertices = 64
	sched := NewScheduler(ds.Graph, ds.Features, ds.Labels, testDevice(), cfg)
	pipeBatch, err := sched.Prepare(dsts, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Same sampled vertex set (ModeSplit is deterministic, so identical).
	so := serialBatch.Sample.Table.OrigVIDs()
	po := pipeBatch.Sample.Table.OrigVIDs()
	if len(so) != len(po) {
		t.Fatalf("sampled %d vs %d vertices", len(so), len(po))
	}
	for i := range so {
		if so[i] != po[i] {
			t.Fatalf("vertex order diverges at %d: %d vs %d", i, so[i], po[i])
		}
	}
	// Same per-layer graphs.
	if len(serialBatch.Layers) != len(pipeBatch.Layers) {
		t.Fatalf("layer count %d vs %d", len(serialBatch.Layers), len(pipeBatch.Layers))
	}
	for i := range serialBatch.Layers {
		a, b := serialBatch.Layers[i].CSR, pipeBatch.Layers[i].CSR
		if a.NumDst != b.NumDst || a.NumSrc != b.NumSrc || a.NumEdges() != b.NumEdges() {
			t.Fatalf("layer %d shape differs: (%d,%d,%d) vs (%d,%d,%d)",
				i, a.NumDst, a.NumSrc, a.NumEdges(), b.NumDst, b.NumSrc, b.NumEdges())
		}
		for d := 0; d < a.NumDst; d++ {
			an := append([]graph.VID(nil), a.Neighbors(graph.VID(d))...)
			bn := append([]graph.VID(nil), b.Neighbors(graph.VID(d))...)
			sortVIDs(an)
			sortVIDs(bn)
			for j := range an {
				if an[j] != bn[j] {
					t.Fatalf("layer %d dst %d neighbor %d: %d vs %d", i, d, j, an[j], bn[j])
				}
			}
		}
	}
	// Same embeddings.
	if diff := serialBatch.Embed.Data.MaxAbsDiff(pipeBatch.Embed.Data); diff != 0 {
		t.Errorf("embedding tables differ by %g", diff)
	}
	// Same labels.
	for i := range serialBatch.Labels {
		if serialBatch.Labels[i] != pipeBatch.Labels[i] {
			t.Fatalf("label %d differs", i)
		}
	}
}

func sortVIDs(v []graph.VID) { sort.Slice(v, func(i, j int) bool { return v[i] < v[j] }) }

func TestPipelineTimelineRecordsAllTasks(t *testing.T) {
	ds := testDataset(t)
	cfg := DefaultConfig()
	cfg.ChunkVertices = 32
	sched := NewScheduler(ds.Graph, ds.Features, ds.Labels, testDevice(), cfg)
	tl := metrics.NewTimeline()
	b, err := sched.Prepare(ds.BatchDsts(30, 1), tl)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Release()
	comp := tl.Completion()
	for _, task := range []string{"sample", "reindex", "lookup", "transfer"} {
		if _, ok := comp[task]; !ok {
			t.Errorf("timeline missing task %q", task)
		}
	}
}

func TestSchedulerOOMPropagates(t *testing.T) {
	ds := testDataset(t)
	cfg := gpusim.DefaultConfig()
	cfg.MemoryBytes = 64 // absurdly small: embedding alloc must fail
	dev := gpusim.NewDevice(cfg)
	sched := NewScheduler(ds.Graph, ds.Features, ds.Labels, dev, DefaultConfig())
	_, err := sched.Prepare(ds.BatchDsts(30, 1), nil)
	if err == nil {
		t.Fatal("expected OOM error")
	}
	if _, ok := err.(*gpusim.OOMError); !ok {
		t.Fatalf("expected *gpusim.OOMError, got %T: %v", err, err)
	}
}
