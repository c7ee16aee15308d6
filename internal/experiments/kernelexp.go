package experiments

import (
	"fmt"
	"strings"
	"time"

	"graphtensor/internal/datasets"
	"graphtensor/internal/dkp"
	"graphtensor/internal/frameworks"
	"graphtensor/internal/gpusim"
	"graphtensor/internal/kernels"
	"graphtensor/internal/metrics"
)

func init() {
	register("fig11b", "Fig 11b: per-layer computation reduction, aggr-first vs comb-first", runFig11b)
	register("table1", "Table I: DKP cost model coefficient fitting", runTable1)
	register("fig15", "Fig 15: training latency (GPU kernels) across frameworks", runFig15)
	register("fig16", "Fig 16: GPU kernel execution breakdown (products, wiki-talk)", runFig16)
	register("fig17", "Fig 17: NAPA GPU resource usage (memory + cache reduction)", runFig17)
	register("fig18", "Fig 18: DKP impact on FLOPs and global memory accesses", runFig18)
}

// kernelFrameworks are the GPU-kernel comparison set of Fig 15/16.
var kernelFrameworks = []frameworks.Kind{
	frameworks.DGL, frameworks.PyG, frameworks.GNNAdvisor, frameworks.BaseGT, frameworks.DynamicGT,
}

// computeLatency measures the GPU-kernel (compute-only) latency of one
// framework on one dataset and model: batches are prepared outside the
// timed section, as the paper measures with Nsight (excluding
// framework-specific overhead and preprocessing).
func computeLatency(cfg Config, kind frameworks.Kind, ds *datasets.Dataset, model string, batches int) (time.Duration, *frameworks.Trainer, error) {
	tr, err := newTrainer(cfg, kind, ds, model)
	if err != nil {
		return 0, nil, err
	}
	// Report the minimum over batches: the paper measures isolated kernel
	// times with Nsight; the minimum is the standard noise-robust proxy.
	var best time.Duration
	for i := 0; i < batches; i++ {
		st, err := tr.TrainBatch()
		if err != nil {
			return 0, nil, err
		}
		if best == 0 || st.Compute < best {
			best = st.Compute
		}
	}
	return best, tr, nil
}

// runFig15 reproduces the training latency comparison: per dataset and
// model, the GPU kernel latency of each framework normalized to Base-GT
// (smaller is better; the paper's y-axis is also normalized to Base-GT).
func runFig15(cfg Config) (*Result, error) {
	var sb strings.Builder
	var series []metrics.Series
	for _, model := range []string{"gcn", "ngcf"} {
		fmt.Fprintf(&sb, "--- %s (normalized GPU kernel latency, Base-GT = 100) ---\n", strings.ToUpper(model))
		fmt.Fprintf(&sb, "%-12s", "dataset")
		for _, k := range kernelFrameworks {
			fmt.Fprintf(&sb, "%12s", k)
		}
		sb.WriteByte('\n')
		perFw := map[frameworks.Kind]*metrics.Series{}
		for _, k := range kernelFrameworks {
			perFw[k] = &metrics.Series{Label: fmt.Sprintf("%s/%s", k, model)}
		}
		for _, name := range allSets(cfg) {
			ds, err := loadDataset(cfg, name)
			if err != nil {
				return nil, err
			}
			batches := cfg.batches(3)
			lat := map[frameworks.Kind]time.Duration{}
			oom := map[frameworks.Kind]bool{}
			for _, k := range kernelFrameworks {
				d, _, err := computeLatency(cfg, k, ds, model, batches)
				if err != nil {
					if _, isOOM := err.(*gpusim.OOMError); isOOM {
						oom[k] = true
						continue
					}
					if oomErr, ok := unwrapOOM(err); ok {
						_ = oomErr
						oom[k] = true
						continue
					}
					return nil, fmt.Errorf("%s/%s/%s: %w", name, model, k, err)
				}
				lat[k] = d
			}
			base := lat[frameworks.BaseGT]
			fmt.Fprintf(&sb, "%-12s", name)
			for _, k := range kernelFrameworks {
				if oom[k] {
					fmt.Fprintf(&sb, "%12s", "OOM")
					perFw[k].Points = append(perFw[k].Points, metrics.Point{X: name, Value: -1})
					continue
				}
				norm := 100 * float64(lat[k]) / float64(base)
				perFw[k].Points = append(perFw[k].Points, metrics.Point{X: name, Value: norm})
				fmt.Fprintf(&sb, "%12.1f", norm)
			}
			sb.WriteByte('\n')
		}
		for _, k := range kernelFrameworks {
			series = append(series, *perFw[k])
		}
		sb.WriteByte('\n')
	}
	sb.WriteString("Paper: Base-GT is 1.5x/1.3x faster than DGL/PyG on light graphs,\n")
	sb.WriteString("1.3x on heavy graphs; Dynamic-GT improves Base-GT further (47.7% GCN,\n")
	sb.WriteString("74.2% NGCF light; 31.0% GCN, 11.4% NGCF heavy). livejournal NGCF OOMs\n")
	sb.WriteString("on PyG/GNNAdvisor (Sparse2Dense).\n")
	return &Result{Text: sb.String(), Series: series}, nil
}

func unwrapOOM(err error) (*gpusim.OOMError, bool) {
	for e := err; e != nil; {
		if oom, ok := e.(*gpusim.OOMError); ok {
			return oom, true
		}
		u, ok := e.(interface{ Unwrap() error })
		if !ok {
			return nil, false
		}
		e = u.Unwrap()
	}
	return nil, false
}

// runFig16 decomposes GPU kernel time into aggregation, edge weighting,
// combination, sparse2dense and format translation for the two
// representative workloads.
func runFig16(cfg Config) (*Result, error) {
	phases := []string{
		kernels.PhaseAggregation, kernels.PhaseEdgeWeight, kernels.PhaseCombination,
		kernels.PhaseSparse2Dense, kernels.PhaseTranslation,
	}
	var sb strings.Builder
	for _, name := range []string{"products", "wiki-talk"} {
		ds, err := loadDataset(cfg, name)
		if err != nil {
			return nil, err
		}
		for _, model := range []string{"gcn", "ngcf"} {
			fmt.Fprintf(&sb, "--- %s / %s (%% of framework kernel time) ---\n", name, strings.ToUpper(model))
			fmt.Fprintf(&sb, "%-12s", "framework")
			for _, p := range phases {
				fmt.Fprintf(&sb, "%14s", p)
			}
			sb.WriteByte('\n')
			for _, k := range kernelFrameworks {
				_, tr, err := computeLatency(cfg, k, ds, model, cfg.batches(2))
				if err != nil {
					if _, isOOM := unwrapOOM(err); isOOM {
						fmt.Fprintf(&sb, "%-12s %s\n", k, "OOM")
						continue
					}
					return nil, err
				}
				bd := tr.Group().Devices()[0].Ctx.Phases
				total := float64(bd.Total())
				fmt.Fprintf(&sb, "%-12s", k)
				for _, p := range phases {
					pct := 0.0
					if total > 0 {
						pct = 100 * float64(bd.Get(p)) / total
					}
					fmt.Fprintf(&sb, "%13.1f%%", pct)
				}
				sb.WriteByte('\n')
			}
			sb.WriteByte('\n')
		}
	}
	sb.WriteString("Paper: format translation is 64.5% of DGL's GCN time on products;\n")
	sb.WriteString("Sparse2Dense is 32.3% of PyG's NGCF time on heavy graphs; GraphTensor\n")
	sb.WriteString("has neither phase.\n")
	return &Result{Text: sb.String()}, nil
}

// runFig17 measures NAPA's device resource usage against the baselines:
// memory footprint reduction vs the DL-approach (paper: 81.8% average) and
// cache load reduction vs the Graph-approach (paper: 44.8% average), over
// a full FWP+BWP training batch.
func runFig17(cfg Config) (*Result, error) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-12s %16s %16s\n", "dataset", "mem reduction", "cache reduction")
	var memRed, cacheRed []float64
	for _, name := range allSets(cfg) {
		ds, err := loadDataset(cfg, name)
		if err != nil {
			return nil, err
		}
		type usage struct {
			peak  int64
			cache int64
		}
		measure := func(kind frameworks.Kind) (usage, error) {
			devCfg := cfg.device()
			devCfg.MemoryBytes = 0
			optCfg := cfg
			optCfg.Device = devCfg
			tr, err := newTrainer(optCfg, kind, ds, "ngcf")
			if err != nil {
				return usage{}, err
			}
			dev := tr.Group().Devices()[0].Dev
			dev.ResetPeak()
			st, err := tr.TrainBatch()
			if err != nil {
				return usage{}, err
			}
			return usage{peak: dev.MemPeak(), cache: st.Counters.CacheBytes}, nil
		}
		napa, err := measure(frameworks.BaseGT)
		if err != nil {
			return nil, err
		}
		dl, err := measure(frameworks.PyG)
		if err != nil {
			return nil, err
		}
		ga, err := measure(frameworks.DGL)
		if err != nil {
			return nil, err
		}
		mr := 100 * (1 - float64(napa.peak)/float64(dl.peak))
		cr := 100 * (1 - float64(napa.cache)/float64(ga.cache))
		memRed = append(memRed, mr)
		cacheRed = append(cacheRed, cr)
		fmt.Fprintf(&sb, "%-12s %15.1f%% %15.1f%%\n", name, mr, cr)
	}
	fmt.Fprintf(&sb, "\naverage: memory footprint -%.1f%% (paper: -81.8%%), cache loads -%.1f%% (paper: -44.8%%)\n",
		metrics.Mean(memRed), metrics.Mean(cacheRed))
	return &Result{Text: sb.String()}, nil
}

// runFig18 compares Base-GT and Dynamic-GT on the FLOPs and global memory
// accesses of the kernels DKP rearranges — the sparse aggregation and edge
// weighting stages (paper: DKP cuts FLOPs by 5.4× and global accesses by
// 1.4× on average). Dynamic-GT places kernels from the profile fitted for
// the simulated device class at construction; the work counters themselves
// are hardware-independent.
func runFig18(cfg Config) (*Result, error) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-12s %-6s %14s %14s %12s %12s\n",
		"dataset", "model", "Base FLOPs", "Dyn FLOPs", "Base mem", "Dyn mem")
	var flopRatios, memRatios []float64
	for _, name := range []string{"products", "wiki-talk"} {
		ds, err := loadDataset(cfg, name)
		if err != nil {
			return nil, err
		}
		for _, model := range []string{"gcn", "ngcf"} {
			counters := func(kind frameworks.Kind) (gpusim.Counters, error) {
				tr, err := newTrainer(cfg, kind, ds, model)
				if err != nil {
					return gpusim.Counters{}, err
				}
				ctx := tr.Group().Devices()[0].Ctx
				ctx.ResetPhaseWork()
				if _, err := tr.TrainBatch(); err != nil {
					return gpusim.Counters{}, err
				}
				sparse := ctx.PhaseWork(kernels.PhaseAggregation).
					Add(ctx.PhaseWork(kernels.PhaseEdgeWeight))
				return sparse, nil
			}
			base, err := counters(frameworks.BaseGT)
			if err != nil {
				return nil, err
			}
			dyn, err := counters(frameworks.DynamicGT)
			if err != nil {
				return nil, err
			}
			baseMem := base.GlobalLoads + base.GlobalStores
			dynMem := dyn.GlobalLoads + dyn.GlobalStores
			fmt.Fprintf(&sb, "%-12s %-6s %14d %14d %12d %12d\n",
				name, model, base.FLOPs, dyn.FLOPs, baseMem, dynMem)
			if dyn.FLOPs > 0 {
				flopRatios = append(flopRatios, float64(base.FLOPs)/float64(dyn.FLOPs))
			}
			if dynMem > 0 {
				memRatios = append(memRatios, float64(baseMem)/float64(dynMem))
			}
		}
	}
	fmt.Fprintf(&sb, "\naverage: FLOPs %.2fx lower with DKP (paper: 5.4x), global accesses %.2fx lower (paper: 1.4x)\n",
		metrics.GeoMean(flopRatios), metrics.GeoMean(memRatios))
	return &Result{Text: sb.String()}, nil
}

// runFig11b analyzes per-layer input-tensor reduction under each placement
// for representative light and heavy workloads, the motivation for DKP.
func runFig11b(cfg Config) (*Result, error) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-12s %6s %12s %12s %14s\n", "dataset", "layer", "aggr-first", "comb-first", "better")
	for _, name := range []string{"products", "amazon", "wiki-talk"} {
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
		inDim := ds.FeatureDim
		for li, l := range b.Layers {
			outDim := tr.Opt.Hidden
			if li == len(b.Layers)-1 {
				outDim = 2
			}
			d := dkp.Dims{
				NSrc: l.CSR.NumSrc, NDst: l.CSR.NumDst, NEdge: l.CSR.NumEdges(),
				NFeat: inDim, NHid: outDim,
			}
			af, cf := dkp.ReductionRate(d)
			better := "aggr-first"
			if cf > af {
				better = "comb-first"
			}
			fmt.Fprintf(&sb, "%-12s %6d %11.2fx %11.2fx %14s\n", name, li+1, af, cf, better)
			inDim = outDim
		}
		b.Release()
	}
	sb.WriteString("\nPaper Fig 11b: comb-first reduces wiki-talk's layer inputs by 31.7% on\naverage; light-feature layers keep the conventional order.\n")
	return &Result{Text: sb.String()}, nil
}

// runTable1 fits the DKP cost model coefficients offline (least-squares
// over modeled kernel times on a calibration sweep, §V-A) and reports the
// fit error (paper: 12.5%). This is the same fit every Dynamic-GT trainer
// runs at construction via dkp.ProfileFor.
func runTable1(cfg Config) (*Result, error) {
	prof, err := dkp.Calibrate(cfg.device())
	if err != nil {
		return nil, err
	}
	c := prof.Coeffs
	var sb strings.Builder
	fmt.Fprintf(&sb, "device class %s, fitted=%v\n", prof.Class, prof.Fitted)
	sb.WriteString("fitted cost model coefficients (µs units, this device class):\n")
	fmt.Fprintf(&sb, "  FWP aggr-first:  α=%.3g β=%.3g   (paper: α=6e-5, β=1e-5)\n", c.AlphaFWP, c.BetaFWP)
	fmt.Fprintf(&sb, "  BWP aggr-first:  α=%.3g β=%.3g   (paper: α=1e-7, β=4e-6)\n", c.AlphaBWP, c.BetaBWP)
	fmt.Fprintf(&sb, "  FWP comb-first:  γ=%.3g δ=%.3g   (paper: γ=1e-3, δ=1e-12)\n", c.GammaFWP, c.DeltaFWP)
	fmt.Fprintf(&sb, "  BWP comb-first:  γ=%.3g δ=%.3g   (paper: γ=1e-6, δ=1e-8)\n", c.GammaBWP, c.DeltaBWP)
	fmt.Fprintf(&sb, "\nmean relative fit error: %.1f%%   (paper: 12.5%%)\n", 100*prof.FitErr)
	rec := prof.Recommend()
	fmt.Fprintf(&sb, "derived defaults: serving MaxBatch=%d MaxDelay=%v, group GradShards=%d\n",
		rec.MaxBatch, rec.MaxDelay, rec.GradShards)
	return &Result{Text: sb.String()}, nil
}
