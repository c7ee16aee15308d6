// Command gttrain trains a GNN model on a synthetic dataset under any of
// the framework builds and reports per-batch latency, loss and device
// counters.
//
// Usage:
//
//	gttrain -dataset products -model gcn -framework prepro-gt -batches 8
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"graphtensor/internal/datasets"
	"graphtensor/internal/dkp"
	"graphtensor/internal/frameworks"
	"graphtensor/internal/metrics"
	"graphtensor/internal/multigpu"
)

var kindNames = map[string]frameworks.Kind{
	"dgl":        frameworks.DGL,
	"pyg":        frameworks.PyG,
	"pyg-mt":     frameworks.PyGMT,
	"gnnadvisor": frameworks.GNNAdvisor,
	"salient":    frameworks.SALIENT,
	"base-gt":    frameworks.BaseGT,
	"dynamic-gt": frameworks.DynamicGT,
	"prepro-gt":  frameworks.PreproGT,
}

func main() {
	var (
		dataset = flag.String("dataset", "products", "dataset name")
		model   = flag.String("model", "gcn", "gcn|ngcf|graphsage|gat")
		fwName  = flag.String("framework", "prepro-gt", "framework build")
		batches = flag.Int("batches", 8, "training batches")
		batchSz = flag.Int("batch-size", 300, "dst vertices per batch")
		hidden  = flag.Int("hidden", 16, "hidden dimension")
		layers  = flag.Int("layers", 2, "GNN depth")
		lr      = flag.Float64("lr", 0.05, "SGD learning rate")
		devices = flag.Int("devices", 0, "data-parallel device count (0 = one device, unsharded)")
		perNode = flag.Int("devices-per-node", 0, "devices per node on the hierarchical fabric (0 = flat single-node fabric)")
		shards  = flag.Int("grad-shards", 0, "fixed gradient-shard count (0 = 1 at -devices 0, else the profile default raised to -devices when below it)")
	)
	flag.Parse()

	kind, ok := kindNames[strings.ToLower(*fwName)]
	if !ok {
		fmt.Fprintf(os.Stderr, "gttrain: unknown framework %q\n", *fwName)
		os.Exit(2)
	}
	ds, err := datasets.Generate(*dataset, datasets.DefaultScale())
	if err != nil {
		fmt.Fprintf(os.Stderr, "gttrain: %v\n", err)
		os.Exit(1)
	}
	opt := frameworks.DefaultOptions()
	opt.Model = *model
	opt.BatchSize = *batchSz
	opt.Hidden = *hidden
	opt.Layers = *layers
	opt.LearningRate = float32(*lr)
	opt.NumDevices = *devices
	opt.DevicesPerNode = *perNode
	opt.GradShards = *shards
	if opt.GradShards == 0 && *devices > multigpu.DefaultShards {
		// Every device needs at least one shard; keep the default's
		// bitwise trajectory when it already covers the device count.
		opt.GradShards = *devices
	}
	tr, err := frameworks.New(kind, ds, opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gttrain: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("training %s on %s with %s (%d batches of %d)\n",
		strings.ToUpper(*model), *dataset, kind, *batches, *batchSz)
	if kind == frameworks.DynamicGT || kind == frameworks.PreproGT {
		prof := dkp.ProfileFor(opt.Device)
		fmt.Printf("DKP cost model fitted offline for device class %s (%.1f%% error)\n",
			prof.Class, 100*prof.FitErr)
	}
	start := time.Now()
	for i := 0; i < *batches; i++ {
		st, err := tr.TrainBatch()
		if err != nil {
			fmt.Fprintf(os.Stderr, "gttrain: batch %d: %v\n", i, err)
			os.Exit(1)
		}
		fmt.Printf("batch %2d  loss %.4f  prep %8v  compute %8v  flops %d\n",
			i, st.Loss, st.Prep.Round(time.Microsecond), st.Compute.Round(time.Microsecond), st.Counters.FLOPs)
	}
	fmt.Printf("total wall time: %v\n", time.Since(start).Round(time.Millisecond))
	g := tr.Group()
	st := g.LastStats()
	fmt.Printf("device-group step (last batch): %d devices, %d shards, imbalance %.2fx, peak dev FLOPs %d, modeled compute %v + comm %v, step %v overlapped (%v serialized, %.0f%% of the scatter hidden)\n",
		st.Devices, st.Shards, st.Imbalance, st.PeakDeviceFLOPs,
		st.MaxDeviceCompute.Round(time.Microsecond), st.CommTime.Round(time.Microsecond),
		st.StepTime.Round(time.Microsecond), st.StepTimeSerial.Round(time.Microsecond),
		st.OverlapEfficiency*100)
	if st.Nodes > 1 {
		fmt.Printf("hierarchical fabric: %d nodes (%d devices/node), node imbalance %.2fx, intra-node comm %v, inter-node comm %v, cross-node payload %.2f MB\n",
			st.Nodes, *perNode, st.NodeImbalance,
			st.IntraNodeTime.Round(time.Microsecond), st.InterNodeTime.Round(time.Microsecond),
			float64(st.CrossNodeBytes)/(1<<20))
	}
	phases := metrics.NewBreakdown()
	for _, d := range g.Devices() {
		for _, name := range d.Ctx.Phases.Names() {
			phases.Add(name, d.Ctx.Phases.Get(name))
		}
	}
	fmt.Printf("kernel phase breakdown (%d devices):\n%s", g.NumDevices(), phases)
}
