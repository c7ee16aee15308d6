// Command gtperf is the repository benchmark: it runs one named workload
// against the public Go API of the GraphTensor reproduction, checks the
// outputs, and prints every metric by name with its unit and a wall or
// modeled label. Wall metrics are host time the Go process spends; modeled
// metrics come from the simulator's device and fabric models and repeat
// exactly for a given seed. The two kinds are never combined.
//
//	bash gtperf/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the run is untraced and reports the end-to-end metrics;
// with --trace 1 a separate traced run reports the per-layer metrics,
// records one span per call into a module, and writes the spans to
// .bench_build/trace/. The last line of standard output is one JSON object
// with the keys correct, attempted, failed and metrics. A failed output
// check exits with status 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// workload is one named input set and how to run it.
type workload struct {
	name string
	// setup builds the workload's system from the seed (dataset
	// generation, construction including DKP calibration, warm-up) and
	// returns the runner that measures it.
	setup func(seed uint64, tr *tracer) (runner, error)
}

// runner measures a set-up workload for the given wall budget. With a
// tracer it reports per-layer metrics, otherwise end-to-end ones; every
// output check it makes is counted in the result.
type runner interface {
	run(budget time.Duration, tr *tracer, res *result) error
	close()
}

var workloads = []workload{
	{"train-light", func(seed uint64, tr *tracer) (runner, error) { return setupTrain(lightSpec, seed, tr) }},
	{"train-heavy", func(seed uint64, tr *tracer) (runner, error) { return setupTrain(heavySpec, seed, tr) }},
	{"serve-open", setupServe},
}

// result accumulates one run's metrics and check outcomes.
type result struct {
	attempted, failed int
	metrics           map[string]float64
	notes             []string
}

func (r *result) set(name string, v float64) { r.metrics[name] = v }

// check counts one output check and records a failure note.
func (r *result) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.notes = append(r.notes, "CHECK FAILED: "+fmt.Sprintf(format, args...))
	}
}

// op counts n attempted operations of which failed failed.
func (r *result) op(n, failed int) {
	r.attempted += n
	r.failed += failed
}

func main() {
	name := flag.String("workload", "", "workload name: train-light, train-heavy or serve-open")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measured wall seconds")
	trace := flag.Int("trace", 0, "1 for the traced per-layer run")
	setupOnly := flag.Bool("setup-only", false, "set the workload up once, print the wall seconds and exit")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	if *setupOnly {
		t0 := time.Now()
		rn, err := w.setup(*seed, nil)
		if err != nil {
			fatal(err)
		}
		fmt.Println(time.Since(t0).Seconds())
		rn.close()
		return
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("need --seconds >= 1 and --trace 0 or 1"))
	}
	// The open loop's generator must not be starved by the system it
	// measures: never more Ps than cores.
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	decl, err := declaredMetrics(*trace == 1)
	if err != nil {
		fatal(err)
	}

	res := &result{metrics: map[string]float64{}}
	var tr *tracer
	var setups []float64
	if *trace == 1 {
		tr = newTracer()
	} else {
		// Set-up time is the median of three cold set-ups: two in child
		// processes (so DKP calibration, which is memoized per process, is
		// paid each time) and this process's own.
		if setups, err = childSetups(w.name, *seed, 2); err != nil {
			fatal(err)
		}
	}
	t0 := time.Now()
	rn, err := w.setup(*seed, tr)
	if err != nil {
		fatal(err)
	}
	if tr == nil {
		res.set("setup_s", median(append(setups, time.Since(t0).Seconds())))
	}
	if err := rn.run(time.Duration(*seconds)*time.Second, tr, res); err != nil {
		res.op(1, 1)
		res.notes = append(res.notes, "RUN FAILED: "+err.Error())
	}
	if tr != nil {
		path, err := tr.write(w.name, *seed)
		if err != nil {
			fatal(err)
		}
		res.notes = append(res.notes, "spans written to "+path)
	}
	emit(res, decl)
}

// childSetups runs the workload's set-up n times in fresh child processes
// of this binary, one after another, and returns their wall seconds.
func childSetups(name string, seed uint64, n int) ([]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < n; i++ {
		b, err := exec.Command(self, "--setup-only", "--workload", name,
			"--seed", strconv.FormatUint(seed, 10)).Output()
		if err != nil {
			return nil, fmt.Errorf("set-up child: %w", err)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(string(b)), 64)
		if err != nil {
			return nil, fmt.Errorf("set-up child output %q: %w", b, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// benchDecl mirrors the metric lists of BENCHMARK.json.
type benchDecl struct {
	EndToEnd []declMetric `json:"end_to_end"`
	PerLayer []declMetric `json:"per_layer"`
}

type declMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// declaredMetrics reads the metric list a run must report from
// BENCHMARK.json in the working directory, and checks that the catalogue
// documents every one of them.
func declaredMetrics(perLayer bool) ([]declMetric, error) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, fmt.Errorf("read BENCHMARK.json (run from the repository root): %w", err)
	}
	var d benchDecl
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, fmt.Errorf("parse BENCHMARK.json: %w", err)
	}
	list := d.EndToEnd
	if perLayer {
		list = d.PerLayer
	}
	for _, m := range list {
		c, ok := catalogue[m.Name]
		if !ok || c.unit != m.Unit {
			return nil, fmt.Errorf("BENCHMARK.json metric %s [%s] is not in the catalogue", m.Name, m.Unit)
		}
	}
	return list, nil
}

// emit prints the human-readable report and, as the last line, the JSON
// result. A run whose checks failed, or that lacks a declared metric,
// exits with status 1.
func emit(res *result, decl []declMetric) {
	for _, n := range res.notes {
		fmt.Println(n)
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]jm{}
	for _, m := range decl {
		v, ok := res.metrics[m.Name]
		if !ok {
			res.op(1, 1)
			fmt.Printf("CHECK FAILED: metric %s was not measured\n", m.Name)
			continue
		}
		c := catalogue[m.Name]
		fmt.Printf("%-32s %14.6g %-6s %-8s %s\n", m.Name, v, m.Unit, c.kind, c.doc)
		out[m.Name] = jm{v, m.Unit}
	}
	if res.attempted == 0 {
		res.attempted = 1
	}
	correct := res.failed == 0
	line, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{correct, res.attempted, res.failed, out})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("GOMAXPROCS=%d NumCPU=%d %s/%s %s\n", runtime.GOMAXPROCS(0), runtime.NumCPU(),
		runtime.GOOS, runtime.GOARCH, runtime.Version())
	fmt.Println(string(line))
	if !correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gtperf:", err)
	os.Exit(2)
}

// median returns the median of vs (0 for none), leaving vs unmodified.
func median(vs []float64) float64 {
	return quantile(vs, 0.5)
}

// quantile returns the q-quantile of vs by the nearest-rank rule on a
// sorted copy (0 for none).
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	i := int(q*float64(len(s)-1) + 0.5)
	return s[i]
}

// durMs converts durations to float milliseconds.
func durMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, l := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(l); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}
