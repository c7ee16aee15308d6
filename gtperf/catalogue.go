package main

// metricDef documents one metric: its unit, whether it is measured on the
// host ("wall": host time, or a count the host process measured) or taken
// from the simulator's models ("modeled": repeats exactly for a seed), and
// what it measures. For a per-layer metric the doc names the end-to-end
// metric it should move and on which workload.
type metricDef struct {
	unit, kind, doc string
}

// catalogue lists every metric the benchmark can report. BENCHMARK.json
// declares which of them a run prints; the run refuses a declared metric
// missing here.
var catalogue = map[string]metricDef{
	// End to end, on every workload (untraced runs).
	"setup_s":     {"s", "wall", "median of 3 cold set-ups: dataset generation, construction incl. DKP calibration, warm-up"},
	"peak_rss_mb": {"MB", "wall", "resident-set high-water mark after the measured phases"},
	"throughput_per_s": {"1/s", "wall", "train: train_samples_per_s, dst vertices trained per second over train.Driver.Run segments (median); " +
		"serve: serve_sat_qps, queries completed per second with 64 outstanding (closed loop)"},
	"latency_p50_ms": {"ms", "wall", "train: median over driver epochs of epoch wall / batches (step incl. validation and checkpoint share); " +
		"serve: query_p50_ms_low, query p50 at 1000 q/s open loop, timed from the due time"},
	"modeled_us": {"us", "modeled", "train: modeled_step_us, mean multigpu GroupStats.StepTime; serve: mean solo-query service time " +
		"(pipelined prep + kernels + miss-only PCIe transfer)"},

	// Per layer (traced runs).
	"datasets.generate_s": {"s", "wall", "datasets.Generate in set-up; moves setup_s on all workloads"},
	"dkp.profile_s":       {"s", "wall", "first frameworks.New incl. dkp calibration; moves setup_s on all workloads"},
	"dkp.comb_first_frac": {"frac", "modeled", "share of layer executions placed combination-first; moves modeled_us"},
	"sampling.sample_ms": {"ms", "wall", "Sampler.Sample replayed on the workload's batches; " +
		"moves latency_p50_ms on serve-open, train-* only through pipeline.ring_wait_ms"},
	"sampling.vertices": {"count", "modeled", "sampled vertices per batch"},
	"sampling.edges":    {"count", "modeled", "sampled edges per batch"},
	"prep.prepare_ms": {"ms", "wall", "PrepareTrainInto/PrepareInto on a warm slot; " +
		"moves latency_p50_ms on serve-open, train-* only through pipeline.ring_wait_ms"},
	"prep.modeled_s_us":              {"us", "modeled", "ModeledTaskTimes sample task per batch"},
	"prep.modeled_r_us":              {"us", "modeled", "ModeledTaskTimes reindex task per batch"},
	"prep.modeled_k_us":              {"us", "modeled", "ModeledTaskTimes lookup task per batch"},
	"prep.modeled_t_us":              {"us", "modeled", "ModeledTaskTimes transfer task per batch"},
	"pipeline.ring_wait_ms":          {"ms", "wall", "mean time blocked in Ring.Next per batch; moves throughput_per_s on train-* (predicted ~0)"},
	"multigpu.compute_ms":            {"ms", "wall", "Trainer.Compute per batch (p50); moves throughput_per_s on train-*"},
	"multigpu.modeled_scatter_us":    {"us", "modeled", "GroupStats.ScatterTime per step; moves modeled_us on train-heavy"},
	"multigpu.modeled_allreduce_us":  {"us", "modeled", "GroupStats.AllReduceTime per step; moves modeled_us on train-heavy"},
	"multigpu.modeled_intra_us":      {"us", "modeled", "GroupStats.IntraNodeTime per step; moves modeled_us on train-heavy"},
	"multigpu.modeled_inter_us":      {"us", "modeled", "GroupStats.InterNodeTime per step; moves modeled_us on train-heavy"},
	"multigpu.comm_bytes":            {"bytes", "modeled", "GroupStats.CommBytes per step; moves modeled_us on train-heavy"},
	"multigpu.cross_node_bytes":      {"bytes", "modeled", "GroupStats.CrossNodeBytes per step; moves modeled_us on train-heavy"},
	"multigpu.imbalance":             {"ratio", "modeled", "GroupStats.Imbalance (shard edges); moves modeled_us on train-heavy"},
	"multigpu.node_imbalance":        {"ratio", "modeled", "GroupStats.NodeImbalance; moves modeled_us on train-heavy"},
	"multigpu.overlap_eff":           {"frac", "modeled", "GroupStats.OverlapEfficiency; moves modeled_us on train-heavy"},
	"multigpu.max_device_compute_us": {"us", "modeled", "GroupStats.MaxDeviceCompute per step; moves modeled_us"},
	"gpusim.launches":                {"count", "modeled", "kernel launches per batch; a simulator-only speed-up leaves it unchanged"},
	"gpusim.flops":                   {"count", "modeled", "FLOPs per batch"},
	"gpusim.global_loads":            {"count", "modeled", "global-memory line fills per batch"},
	"gpusim.global_stores":           {"count", "modeled", "global-memory stores per batch"},
	"gpusim.cache_hits":              {"count", "modeled", "SM cache hits per batch"},
	"gpusim.l1_hit_ratio":            {"frac", "modeled", "hits / (hits + global loads)"},
	"gpusim.host_ns_per_launch":      {"ns", "wall", "compute wall / launches; moves throughput_per_s most on train-light, latency_p50_ms on serve-open"},
	"gpusim.host_ns_per_kflop":       {"ns", "wall", "compute wall / thousand FLOPs; moves throughput_per_s most on train-heavy"},
	"host.allocs_per_batch":          {"count", "wall", "heap allocations per trained batch; moves throughput_per_s on train-*"},
	"host.allocs_per_query":          {"count", "wall", "heap allocations per open-loop query; moves latency_p50_ms on serve-open"},
	"host.gc_cycles":                 {"count", "wall", "GC cycles in the traced phases; moves throughput_per_s and latency_p50_ms"},
	"host.gc_pause_ms":               {"ms", "wall", "GC pause total in the traced phases; moves throughput_per_s and latency_p50_ms"},
	"cache.hit_rate":                 {"frac", "modeled", "embedding-cache hit rate; moves latency_p50_ms on serve-open only (training stages host-only)"},
	"serve.modeled_transfer_us":      {"us", "modeled", "miss-only PCIe transfer per micro-batch at the low phase's mean size; moves latency_p50_ms on serve-open"},
	"serve.submit_us":                {"us", "wall", "Server.Submit call (p50); moves throughput_per_s on serve-open"},
	"serve.mean_batch_dsts_low":      {"count", "wall", "mean micro-batch dsts at 1000 q/s"},
	"serve.mean_batch_dsts_high":     {"count", "wall", "mean micro-batch dsts at 6000 q/s; moves throughput_per_s on serve-open"},
	"serve.stolen_frac":              {"frac", "wall", "micro-batches served by a replica other than their shard's"},
	"serve.expired":                  {"count", "wall", "queries failed by deadline"},
	"serve.failed_over":              {"count", "wall", "micro-batches re-enqueued after a device loss"},
	"serve.infer_ms":                 {"ms", "wall", "solo Trainer.Serve at the low phase's mean batch size (p50); moves latency_p50_ms on serve-open"},
	"serve.wait_ms":                  {"ms", "wall", "low-rate query p50 minus serve.infer_ms: queueing and coalescing; moves latency_p50_ms"},
	"serve.query_p50_ms_high":        {"ms", "wall", "query p50 at 6000 q/s from the due time (diagnostic)"},
	"serve.query_p99_ms_low":         {"ms", "wall", "query p99 at 1000 q/s from the due time (diagnostic)"},
	"serve.query_p99_ms_high":        {"ms", "wall", "query p99 at 6000 q/s from the due time (diagnostic)"},
	"loadgen.late_ms_max":            {"ms", "wall", "largest delay of a submission past its due time"},
	"loadgen.late_frac":              {"frac", "wall", "share of submissions more than 1 ms past due"},
	"train.checkpoint_ms":            {"ms", "wall", "Trainer.Checkpoint incl. fsync+rename (p50); moves throughput_per_s on train-light only"},
	"train.validate_ms":              {"ms", "wall", "validation Prepare+Evaluate (p50); moves throughput_per_s on train-*"},
	"trace.coverage": {"frac", "wall", "union of timed spans / traced wall (train: ring wait, compute, validation, checkpoint per segment; " +
		"serve: open-loop time with a query in flight)"},
	"trace.overhead_frac": {"frac", "wall", "1 - traced / untraced throughput of the same loop"},
}

// serveOnly and trainOnly are the per-layer metrics inert on the other
// kind of workload; they report 0 there.
var (
	serveOnly = []string{"host.allocs_per_query", "cache.hit_rate", "serve.modeled_transfer_us", "serve.submit_us",
		"serve.mean_batch_dsts_low", "serve.mean_batch_dsts_high", "serve.stolen_frac", "serve.expired",
		"serve.failed_over", "serve.infer_ms", "serve.wait_ms", "serve.query_p50_ms_high",
		"serve.query_p99_ms_low", "serve.query_p99_ms_high", "loadgen.late_ms_max", "loadgen.late_frac"}
	trainOnly = []string{"pipeline.ring_wait_ms", "multigpu.compute_ms", "multigpu.modeled_scatter_us",
		"multigpu.modeled_allreduce_us", "multigpu.modeled_intra_us", "multigpu.modeled_inter_us",
		"multigpu.comm_bytes", "multigpu.cross_node_bytes", "multigpu.imbalance", "multigpu.node_imbalance",
		"multigpu.overlap_eff", "multigpu.max_device_compute_us", "host.allocs_per_batch",
		"train.checkpoint_ms", "train.validate_ms"}
)
