package experiments

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"graphtensor/internal/datasets"
	"graphtensor/internal/frameworks"
	"graphtensor/internal/gpusim"
	"graphtensor/internal/kernels"
	"graphtensor/internal/metrics"
	"graphtensor/internal/pipeline"
	"graphtensor/internal/prep"
	"graphtensor/internal/sampling"
)

func init() {
	register("fig6a", "Fig 6a: DL-approach memory bloat (normalized footprint)", runFig6a)
	register("fig6b", "Fig 6b: Graph-approach SDDMM cache bloat (normalized cache load)", runFig6b)
	register("fig8", "Fig 8: degree distribution, original vs preprocessed graphs", runFig8)
	register("fig12a", "Fig 12a: end-to-end latency breakdown (S/R/K/T vs FWP+BWP)", runFig12a)
	register("fig12b", "Fig 12b: system resource utilization per preprocessing task", runFig12b)
	register("fig14", "Fig 14a: hash-table lock contention in parallel preprocessing", runFig14)
}

// prepareKernelBatch samples and prepares one batch of a dataset with the
// given format, returning the batch plus the uploaded embedding matrix.
func prepareKernelBatch(cfg Config, ds *datasets.Dataset, dev *gpusim.Device,
	format prep.Format) (*prep.Batch, *kernels.DeviceMatrix, error) {
	scfg := samplerFor(ds)
	b, err := pipeline.Serial(ds.Graph, ds.Features, ds.Labels, dev, ds.BatchDsts(300, 1), scfg,
		prep.Config{Format: format, Pinned: true})
	if err != nil {
		return nil, nil, err
	}
	x, err := kernels.WrapDeviceMatrix(dev, b.Embed.Data, "batch-x")
	if err != nil {
		return nil, nil, err
	}
	return b, x, nil
}

// layerGraphs converts a prepared batch's layers for the kernel API.
func layerGraphs(b *prep.Batch) []*kernels.Graphs {
	out := make([]*kernels.Graphs, len(b.Layers))
	for i, l := range b.Layers {
		out[i] = &kernels.Graphs{COO: l.COO, CSR: l.CSR, CSC: l.CSC}
	}
	return out
}

// runFig6a measures the device memory footprint of the DL-approach's
// NGCF-style aggregation + edge weighting, normalized by the input
// embedding table size (the paper reports 5.8× average bloat).
func runFig6a(cfg Config) (*Result, error) {
	var sb strings.Builder
	series := metrics.Series{Label: "DL-approach"}
	fmt.Fprintf(&sb, "%-12s %s\n", "dataset", "normalized memory footprint")
	var ratios []float64
	for _, name := range allSets(cfg) {
		ds, err := loadDataset(cfg, name)
		if err != nil {
			return nil, err
		}
		devCfg := cfg.device()
		devCfg.MemoryBytes = 0 // unlimited: we are measuring, not gating
		dev := gpusim.NewDevice(devCfg)
		b, x, err := prepareKernelBatch(cfg, ds, dev, prep.FormatCSR)
		if err != nil {
			return nil, err
		}
		embedBytes := b.Embed.Bytes()
		ctx := kernels.NewCtx(dev)
		dev.ResetPeak()
		base := dev.MemInUse()
		g := layerGraphs(b)[0] // the outermost (largest) layer dominates
		out, err := kernels.DLApproach{}.Forward(ctx, g, x, kernels.NGCFModes())
		if err != nil {
			return nil, err
		}
		out.Free()
		footprint := float64(dev.MemPeak()-base+embedBytes) / float64(embedBytes)
		ratios = append(ratios, footprint)
		series.Points = append(series.Points, metrics.Point{X: name, Value: footprint})
		fmt.Fprintf(&sb, "%-12s %s\n", name, fmtRatio(footprint, 0))
		b.Release()
	}
	fmt.Fprintf(&sb, "\naverage memory bloat: %.2fx   (paper: 5.8x)\n", metrics.Mean(ratios))
	return &Result{Text: sb.String(), Series: []metrics.Series{series}}, nil
}

// runFig6b measures the bytes the Graph-approach's edge-wise SDDMM loads
// into SM caches, normalized by the embedding table size (paper: 1.8×,
// i.e. 81.9% more data than the table holds).
func runFig6b(cfg Config) (*Result, error) {
	var sb strings.Builder
	series := metrics.Series{Label: "Graph-approach"}
	fmt.Fprintf(&sb, "%-12s %s\n", "dataset", "normalized cache load (SDDMM)")
	var ratios []float64
	for _, name := range allSets(cfg) {
		ds, err := loadDataset(cfg, name)
		if err != nil {
			return nil, err
		}
		dev := gpusim.NewDevice(cfg.device())
		b, x, err := prepareKernelBatch(cfg, ds, dev, prep.FormatCOO)
		if err != nil {
			return nil, err
		}
		ctx := kernels.NewCtx(dev)
		before := dev.Snapshot()
		w, err := kernels.GraphApproach{}.SDDMM(ctx, layerGraphs(b)[0], x, kernels.NGCFModes())
		if err != nil {
			return nil, err
		}
		w.Free()
		cacheBytes := dev.Snapshot().Sub(before).CacheBytes
		ratio := float64(cacheBytes) / float64(b.Embed.Bytes())
		ratios = append(ratios, ratio)
		series.Points = append(series.Points, metrics.Point{X: name, Value: ratio})
		fmt.Fprintf(&sb, "%-12s %8.2f\n", name, ratio)
		b.Release()
	}
	fmt.Fprintf(&sb, "\naverage cache load vs embedding table: %.2fx   (paper: 1.8x)\n", metrics.Mean(ratios))
	return &Result{Text: sb.String(), Series: []metrics.Series{series}}, nil
}

// runFig8 compares degree statistics of the original graphs against their
// sampled (preprocessed) subgraphs: the sampled graphs have much lower and
// much more even degrees (paper: 3.4× lower mean, 3.3 vs 150 stddev),
// which is why edge-wise scheduling loses its advantage on GNN inputs.
func runFig8(cfg Config) (*Result, error) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-12s %10s %10s %10s %10s %7s\n",
		"dataset", "orig mean", "orig std", "samp mean", "samp std", "ratio")
	var ratios, origStds, sampStds []float64
	for _, name := range allSets(cfg) {
		ds, err := loadDataset(cfg, name)
		if err != nil {
			return nil, err
		}
		full := ds.Graph.Degrees()
		smp := sampling.New(ds.Graph, samplerFor(ds))
		res := smp.Sample(ds.BatchDsts(300, 1))
		hop := res.ForLayer(1)
		// Per-vertex in-degree across the whole sampled subgraph, leaves
		// included (this matches Table II's edges/vertices column).
		sampDeg := make([]int, hop.NumSrc)
		b, err := prep.ReindexCOO(hop, res.Table)
		if err != nil {
			return nil, err
		}
		for _, d := range b.Dst {
			sampDeg[d]++
		}
		fullStats := computeStats(full)
		sampStats := computeStats(sampDeg)
		ratio := fullStats.Mean / nonZero(sampStats.Mean)
		ratios = append(ratios, ratio)
		origStds = append(origStds, fullStats.StdDev)
		sampStds = append(sampStds, sampStats.StdDev)
		fmt.Fprintf(&sb, "%-12s %10.2f %10.2f %10.2f %10.2f %7.2f\n",
			name, fullStats.Mean, fullStats.StdDev, sampStats.Mean, sampStats.StdDev, ratio)
	}
	fmt.Fprintf(&sb, "\nmean degree ratio original/preprocessed: %.2fx   (paper: 3.4x)\n", metrics.Mean(ratios))
	fmt.Fprintf(&sb, "stddev original %.1f vs preprocessed %.1f   (paper: ~150 vs 3.3)\n",
		metrics.Mean(origStds), metrics.Mean(sampStds))
	return &Result{Text: sb.String()}, nil
}

// runFig12a decomposes the end-to-end batch latency of a conventional
// (serialized-preprocessing) framework into sampling, reindexing, lookup,
// transfer and GPU compute. The paper observes preprocessing at 84.2% of
// the total on average.
func runFig12a(cfg Config) (*Result, error) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-12s %7s %7s %7s %7s %9s\n", "dataset", "S%", "R%", "K%", "T%", "FWP+BWP%")
	var prepShares []float64
	for _, name := range allSets(cfg) {
		ds, err := loadDataset(cfg, name)
		if err != nil {
			return nil, err
		}
		tr, err := newTrainer(cfg, frameworks.BaseGT, ds, "gcn")
		if err != nil {
			return nil, err
		}
		b, err := tr.Prepare(ds.BatchDsts(300, 1), nil)
		if err != nil {
			return nil, err
		}
		st, err := tr.TrainBatch()
		if err != nil {
			return nil, err
		}
		// Both preprocessing and GPU compute are modeled (the simulator's
		// kernels and goroutine overlap run on the host CPU; see
		// gpusim.KernelTimeModel and pipeline.PrepCostModel).
		tt := tr.ModeledTaskTimes(b)
		b.Release()
		compute := tr.ModeledCompute(st)
		prep := tt.Sample + tt.Reindex + tt.Lookup + tt.Transfer
		total := float64(prep + compute)
		pct := func(d time.Duration) float64 { return 100 * float64(d) / total }
		fmt.Fprintf(&sb, "%-12s %7.1f %7.1f %7.1f %7.1f %9.1f\n", name,
			pct(tt.Sample), pct(tt.Reindex), pct(tt.Lookup), pct(tt.Transfer), pct(compute))
		prepShares = append(prepShares, 100*float64(prep)/total)
	}
	fmt.Fprintf(&sb, "\naverage preprocessing share: %.1f%%   (paper: 84.2%%)\n", metrics.Mean(prepShares))
	return &Result{Text: sb.String()}, nil
}

// runFig12b reports per-task system resource utilization on wiki-talk:
// CPU cores busy and DMA (PCIe) bandwidth. S/R/K tasks never touch PCIe;
// T uses one core and the link — the imbalance the tensor scheduler
// exploits.
func runFig12b(cfg Config) (*Result, error) {
	ds, err := loadDataset(cfg, "wiki-talk")
	if err != nil {
		return nil, err
	}
	dev := gpusim.NewDevice(cfg.device())
	scfg := samplerFor(ds)
	b, err := pipeline.Serial(ds.Graph, ds.Features, ds.Labels, dev, ds.BatchDsts(300, 1), scfg,
		prep.Config{Format: prep.FormatCSRCSC})
	if err != nil {
		return nil, err
	}
	defer b.Release()
	cores := runtime.GOMAXPROCS(0)
	tT := b.Breakdown.Get("transfer")
	dma := 0.0
	if tT > 0 {
		dma = float64(dev.PCIe().BytesMoved()) // bytes
		dma = dma / tT.Seconds() / 1e9         // GB/s
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-10s %12s %10s %10s\n", "task", "time", "CPU cores", "DMA GB/s")
	fmt.Fprintf(&sb, "%-10s %12v %10d %10.2f\n", "sample", b.Breakdown.Get("sample").Round(time.Microsecond), cores, 0.0)
	fmt.Fprintf(&sb, "%-10s %12v %10d %10.2f\n", "reindex", b.Breakdown.Get("reindex").Round(time.Microsecond), 1, 0.0)
	fmt.Fprintf(&sb, "%-10s %12v %10d %10.2f\n", "lookup", b.Breakdown.Get("lookup").Round(time.Microsecond), 1, 0.0)
	fmt.Fprintf(&sb, "%-10s %12v %10d %10.2f\n", "transfer", tT.Round(time.Microsecond), 1, dma)
	sb.WriteString("\nS/R/K leave the PCIe link idle; T leaves all but one core idle (Fig 12b).\n")
	return &Result{Text: sb.String()}, nil
}

// runFig14 measures hash-table lock contention: the share of preprocessing
// time spent waiting on the shared VID table under the naive fully-shared
// discipline, versus the A/H-split relaxed discipline (paper: 47.4% +
// 39.0% of preprocessing time lost before relaxing).
func runFig14(cfg Config) (*Result, error) {
	ds, err := loadDataset(cfg, "products")
	if err != nil {
		return nil, err
	}
	measure := func(relax bool) (time.Duration, time.Duration, error) {
		dev := gpusim.NewDevice(cfg.device())
		pcfg := pipeline.DefaultConfig()
		pcfg.Sampler = samplerFor(ds)
		pcfg.RelaxContention = relax
		sched := pipeline.NewScheduler(ds.Graph, ds.Features, ds.Labels, dev, pcfg)
		t0 := time.Now()
		b, err := sched.Prepare(ds.BatchDsts(300, 1), nil)
		if err != nil {
			return 0, 0, err
		}
		defer b.Release()
		return time.Since(t0), b.Sample.Table.LockWait(), nil
	}
	sharedWall, sharedWait, err := measure(false)
	if err != nil {
		return nil, err
	}
	relaxedWall, relaxedWait, err := measure(true)
	if err != nil {
		return nil, err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-22s %14s %14s %10s\n", "discipline", "prep wall", "lock wait", "wait share")
	share := func(wait, wall time.Duration) float64 {
		if wall == 0 {
			return 0
		}
		return 100 * float64(wait) / float64(wall)
	}
	fmt.Fprintf(&sb, "%-22s %14v %14v %9.1f%%\n", "shared (contended)",
		sharedWall.Round(time.Microsecond), sharedWait.Round(time.Microsecond), share(sharedWait, sharedWall))
	fmt.Fprintf(&sb, "%-22s %14v %14v %9.1f%%\n", "A/H split (relaxed)",
		relaxedWall.Round(time.Microsecond), relaxedWait.Round(time.Microsecond), share(relaxedWait, relaxedWall))
	sb.WriteString("\nPaper Fig 14a: contention costs 47.4% (S subtasks) + 39.0% (S vs R) of\npreprocessing before the A (algorithm) / H (hash update) split serializes\ntable updates.\n")
	return &Result{Text: sb.String()}, nil
}

type stats struct{ Mean, StdDev float64 }

func computeStats(deg []int) stats {
	if len(deg) == 0 {
		return stats{}
	}
	var sum, sq float64
	for _, d := range deg {
		sum += float64(d)
		sq += float64(d) * float64(d)
	}
	n := float64(len(deg))
	mean := sum / n
	v := sq/n - mean*mean
	if v < 0 {
		v = 0
	}
	return stats{Mean: mean, StdDev: math.Sqrt(v)}
}

func nonZero(x float64) float64 {
	if x == 0 {
		return 1
	}
	return x
}
