package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// Micro-benchmark capture: `gtbench -micro` runs the repository's hot-path
// benchmarks (`go test -bench -benchmem` at the module root), parses the
// ns/op, B/op and allocs/op columns, and writes a BENCH_<n>.json snapshot.
// Successive snapshots (BENCH_1.json, BENCH_2.json, ...) form the
// performance trajectory of the substrate; compare them with any JSON
// diff, or benchstat on the raw `go test` output.

// defaultMicroBench selects the substrate hot paths (not the full
// paper-figure regenerations, which dominate wall time).
const defaultMicroBench = "BenchmarkNAPAForward|BenchmarkGraphApproachForwardNGCF$|BenchmarkDLApproachForwardNGCF$|BenchmarkCOOToCSR$|BenchmarkNeighborSampling$|BenchmarkPrepareBatch$|BenchmarkServeQuery$|BenchmarkServeThroughput$|BenchmarkServeContention$|BenchmarkTrainBatchPreproGT$|BenchmarkTrainEpoch$|BenchmarkMultiGPUTrainBatch$|BenchmarkCountResident$|BenchmarkPolicyDecide$|BenchmarkKernelLaunch$"

// benchResult is one benchmark's aggregated samples.
type benchResult struct {
	Name        string    `json:"name"`
	Samples     int       `json:"samples"`
	NsPerOp     []float64 `json:"ns_per_op"`
	NsPerOpBest float64   `json:"ns_per_op_best"`
	NsPerOpMean float64   `json:"ns_per_op_mean"`
	BytesPerOp  int64     `json:"bytes_per_op"`
	AllocsPerOp int64     `json:"allocs_per_op"`
}

// benchFile is the BENCH_<n>.json schema.
type benchFile struct {
	Schema     string        `json:"schema"`
	CreatedUTC string        `json:"created_utc"`
	GoVersion  string        `json:"go_version"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	Count      int           `json:"count"`
	Bench      string        `json:"bench_regexp"`
	Benchmarks []benchResult `json:"benchmarks"`
}

// benchLine tolerates custom metrics between ns/op and B/op (e.g.
// BenchmarkServeThroughput's queries/sec from b.ReportMetric).
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op(?:\s+[\d.e+]+ [\w/]+)*?\s+(\d+) B/op\s+(\d+) allocs/op`)

// runMicro executes the micro-benchmark suite and writes outPath. It must
// run from the module root (where go.mod lives).
func runMicro(benchRe string, count int, outPath string) error {
	if _, err := os.Stat("go.mod"); err != nil {
		return fmt.Errorf("gtbench -micro must run from the repository root (go.mod not found): %w", err)
	}
	// The module root holds the end-to-end benchmarks; internal/cache holds
	// the epoch-snapshot read path whose zero-alloc floor the snapshot
	// ratchets.
	// -timeout scales with -count: the default 10m cap kills deep captures
	// (the snapshot records min-over-samples, which needs count >= ~20 to
	// converge on the concurrency-heavy benchmarks).
	args := []string{"test", "-run", "^$", "-bench", benchRe, "-benchmem",
		"-count", strconv.Itoa(count), "-timeout", "120m", ".", "./internal/cache"}
	fmt.Fprintf(os.Stderr, "gtbench: go %v\n", args)
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	outBytes, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("go test -bench failed: %w\n%s", err, outBytes)
	}

	byName := map[string]*benchResult{}
	var order []string
	for _, line := range regexp.MustCompile(`\r?\n`).Split(string(outBytes), -1) {
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		ns, _ := strconv.ParseFloat(m[2], 64)
		bytesOp, _ := strconv.ParseInt(m[3], 10, 64)
		allocsOp, _ := strconv.ParseInt(m[4], 10, 64)
		r := byName[m[1]]
		if r == nil {
			r = &benchResult{Name: m[1], BytesPerOp: bytesOp, AllocsPerOp: allocsOp}
			byName[m[1]] = r
			order = append(order, m[1])
		}
		r.NsPerOp = append(r.NsPerOp, ns)
		if bytesOp < r.BytesPerOp {
			r.BytesPerOp = bytesOp
		}
		if allocsOp < r.AllocsPerOp {
			r.AllocsPerOp = allocsOp
		}
	}
	if len(order) == 0 {
		return fmt.Errorf("no benchmark lines matched %q in go test output", benchRe)
	}
	sort.Strings(order)

	f := benchFile{
		Schema:     "graphtensor-bench/v1",
		CreatedUTC: time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Count:      count,
		Bench:      benchRe,
	}
	for _, name := range order {
		r := byName[name]
		r.Samples = len(r.NsPerOp)
		best, sum := r.NsPerOp[0], 0.0
		for _, v := range r.NsPerOp {
			if v < best {
				best = v
			}
			sum += v
		}
		r.NsPerOpBest = best
		r.NsPerOpMean = sum / float64(len(r.NsPerOp))
		f.Benchmarks = append(f.Benchmarks, *r)
	}

	enc, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(enc, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("%-36s %14s %14s %10s %10s\n", "benchmark", "best ns/op", "mean ns/op", "B/op", "allocs/op")
	for _, r := range f.Benchmarks {
		fmt.Printf("%-36s %14.0f %14.0f %10d %10d\n", r.Name, r.NsPerOpBest, r.NsPerOpMean, r.BytesPerOp, r.AllocsPerOp)
	}
	fmt.Printf("wrote %s (%d benchmarks × %d samples)\n", outPath, len(f.Benchmarks), count)
	return nil
}
