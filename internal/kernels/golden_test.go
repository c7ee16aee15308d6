package kernels

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"graphtensor/internal/datasets"
	"graphtensor/internal/gpusim"
	"graphtensor/internal/pipeline"
	"graphtensor/internal/prep"
	"graphtensor/internal/sampling"
	"graphtensor/internal/tensor"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/counters.golden from the current simulator")

const goldenPath = "testdata/counters.golden"

// goldenStrategies is every Strategy implementation the counter goldens
// pin, forward and backward.
var goldenStrategies = []Strategy{NAPA{}, Unfused{}, GraphApproach{}, DLApproach{}, Advisor{GroupSize: 4}}

// TestCounterGolden pins the simulator's modeled counters — FLOPs, global
// loads and stores, cache hits, cache bytes and launches — for every
// strategy's forward and backward pass, the combination-first kernels and
// the dense kernels (Linear, LinearBackward, BiasReLU, BiasReLUBackward),
// under GCN and NGCF modes on one quick-scale batch of products and
// gowalla. The paper's modeled cache and load figures (6b, 16, 17, 18)
// come from exactly these counters, so a host-side simulator speed-up
// must leave every line unchanged at any worker count. Regenerating the
// goldens (go test ./internal/kernels -run TestCounterGolden -update) is
// a deliberate re-baseline of the modeled numbers.
func TestCounterGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("generates two datasets")
	}
	inputs := goldenInputs(t)
	var got1 []string
	for _, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		lines := goldenCounters(t, inputs)
		runtime.GOMAXPROCS(prev)
		if got1 == nil {
			got1 = lines
			continue
		}
		if d := diffLines(got1, lines); d != "" {
			t.Fatalf("counters differ between GOMAXPROCS 1 and %d:\n%s", procs, d)
		}
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		body := "# key flops global_loads global_stores cache_hits cache_bytes launches\n" + strings.Join(got1, "\n") + "\n"
		if err := os.WriteFile(goldenPath, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden lines to %s", len(got1), goldenPath)
		return
	}
	want := readGolden(t)
	if d := diffLines(want, got1); d != "" {
		t.Fatalf("modeled counters moved against %s (a change here is a re-baseline):\n%s", goldenPath, d)
	}
}

// goldenInput is one prepared batch: its outermost layer graph and the
// embedding rows that layer reads, replayed on a device with numSMs SMs.
type goldenInput struct {
	name   string
	numSMs int
	g      *Graphs
	x      *tensor.Matrix
}

func goldenInputs(t *testing.T) []goldenInput {
	t.Helper()
	var out []goldenInput
	for _, name := range []string{"products", "gowalla"} {
		ds, err := datasets.Generate(name, datasets.DefaultScale())
		if err != nil {
			t.Fatal(err)
		}
		dev := gpusim.NewDevice(gpusim.DefaultConfig())
		b, err := pipeline.Serial(ds.Graph, ds.Features, ds.Labels, dev, ds.BatchDsts(100, 1),
			sampling.DefaultConfig(), prep.Config{Format: prep.FormatCSR, Pinned: true})
		if err != nil {
			t.Fatal(err)
		}
		l := b.Layers[0]
		g := &Graphs{COO: l.COO, CSR: l.CSR, CSC: l.CSC}
		// The paper's 82-SM device keeps most per-SM caches lightly
		// occupied on a quick batch; an 8-SM device pushes the same batch
		// past cache capacity, so eviction is pinned too.
		for _, sms := range []int{gpusim.DefaultConfig().NumSMs, 8} {
			out = append(out, goldenInput{
				name:   fmt.Sprintf("%s/sm%d", name, sms),
				numSMs: sms,
				g:      g,
				x:      b.Embed.Data,
			})
		}
	}
	return out
}

// goldenCounters replays the grid on fresh devices and returns one line
// per (dataset, mode, kernel, pass) holding the counter delta of that pass.
func goldenCounters(t *testing.T, inputs []goldenInput) []string {
	t.Helper()
	var lines []string
	for _, in := range inputs {
		for _, mode := range []struct {
			name string
			m    Modes
		}{{"gcn", GCNModes()}, {"ngcf", NGCFModes()}} {
			prefix := in.name + "/" + mode.name + "/"
			for _, s := range goldenStrategies {
				lines = append(lines, goldenStrategy(t, prefix+s.Name(), in, s, mode.m)...)
			}
			lines = append(lines, goldenCombFirst(t, prefix+"comb-first", in, mode.m)...)
			lines = append(lines, goldenDense(t, prefix+"dense", in, mode.m)...)
		}
	}
	return lines
}

// stepper records, per step, the device counter delta as one golden line.
type stepper struct {
	t     *testing.T
	dev   *gpusim.Device
	lines []string
}

func (s *stepper) step(key string, fn func() error) {
	s.t.Helper()
	before := s.dev.Snapshot()
	if err := fn(); err != nil {
		s.t.Fatalf("%s: %v", key, err)
	}
	c := s.dev.Snapshot().Sub(before)
	s.lines = append(s.lines, fmt.Sprintf("%s %d %d %d %d %d %d",
		key, c.FLOPs, c.GlobalLoads, c.GlobalStores, c.CacheHits, c.CacheBytes, c.Launches))
}

func newStepper(t *testing.T, in goldenInput) (*stepper, *Ctx, *DeviceMatrix, *Graphs) {
	t.Helper()
	cfg := gpusim.DefaultConfig()
	cfg.NumSMs = in.numSMs
	dev := gpusim.NewDevice(cfg)
	x, err := WrapDeviceMatrix(dev, in.x.Clone(), "x")
	if err != nil {
		t.Fatal(err)
	}
	g := &Graphs{COO: in.g.COO, CSR: in.g.CSR, CSC: in.g.CSC}
	return &stepper{t: t, dev: dev}, NewCtx(dev), x, g
}

func goldenStrategy(t *testing.T, key string, in goldenInput, s Strategy, m Modes) []string {
	st, ctx, x, g := newStepper(t, in)
	var out *DeviceMatrix
	st.step(key+"/fwd", func() (err error) {
		out, err = s.Forward(ctx, g, x, m)
		return err
	})
	dOut, err := WrapDeviceMatrix(st.dev, out.M.Clone(), "dout")
	if err != nil {
		t.Fatal(err)
	}
	st.step(key+"/bwd", func() error {
		_, err := s.Backward(ctx, g, x, dOut, m)
		return err
	})
	return st.lines
}

func goldenCombFirst(t *testing.T, key string, in goldenInput, m Modes) []string {
	st, ctx, x, g := newStepper(t, in)
	w := tensor.Random(x.M.Cols, 8, 1, tensor.NewRNG(3))
	dw := tensor.New(w.Rows, w.Cols)
	var res *CombFirstResult
	st.step(key+"/fwd", func() (err error) {
		res, err = CombFirstForward(ctx, g, x, w, m)
		return err
	})
	dPre, err := WrapDeviceMatrix(st.dev, res.Out.M.Clone(), "dpre")
	if err != nil {
		t.Fatal(err)
	}
	st.step(key+"/bwd", func() error {
		_, err := CombFirstBackward(ctx, g, x, res, dPre, w, dw, m)
		return err
	})
	return st.lines
}

// goldenDense runs one aggregation-first layer's dense tail on the NAPA
// aggregate: Linear, BiasReLU and their backward passes.
func goldenDense(t *testing.T, key string, in goldenInput, m Modes) []string {
	st, ctx, x, g := newStepper(t, in)
	aggr, err := NAPA{}.Forward(ctx, g, x, m)
	if err != nil {
		t.Fatal(err)
	}
	w := tensor.Random(aggr.M.Cols, 8, 1, tensor.NewRNG(5))
	dw := tensor.New(w.Rows, w.Cols)
	bias := make([]float32, w.Cols)
	dBias := make([]float32, w.Cols)
	var h *DeviceMatrix
	var pre *tensor.Matrix
	st.step(key+"/linear", func() (err error) {
		h, err = Linear(ctx, aggr, w, "h")
		return err
	})
	st.step(key+"/bias-relu", func() (err error) {
		pre, err = BiasReLU(ctx, h, bias)
		return err
	})
	dy, err := WrapDeviceMatrix(st.dev, h.M.Clone(), "dy")
	if err != nil {
		t.Fatal(err)
	}
	st.step(key+"/bias-relu-bwd", func() error {
		return BiasReLUBackward(ctx, dy, pre, dBias)
	})
	st.step(key+"/linear-bwd", func() error {
		_, err := LinearBackward(ctx, aggr, dy, w, dw, "dx")
		return err
	})
	return st.lines
}

func readGolden(t *testing.T) []string {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if l := sc.Text(); l != "" && !strings.HasPrefix(l, "#") {
			lines = append(lines, l)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// diffLines reports every line that differs between want and got.
func diffLines(want, got []string) string {
	var sb strings.Builder
	for i := 0; i < len(want) || i < len(got); i++ {
		var w, g string
		if i < len(want) {
			w = want[i]
		}
		if i < len(got) {
			g = got[i]
		}
		if w != g {
			fmt.Fprintf(&sb, "  want %q\n  got  %q\n", w, g)
		}
	}
	return sb.String()
}
