package frameworks

import (
	"fmt"
	"math"
	"testing"

	"graphtensor/internal/datasets"
	"graphtensor/internal/gpusim"
	"graphtensor/internal/models"
)

// engineTrace is one training run's observable trajectory: per-batch losses
// and device counters of the TrainBatch steps, the mean loss of the
// TrainEpoch that follows, and the final weights.
type engineTrace struct {
	losses    []float64
	counters  []gpusim.Counters
	epochLoss float64
	weights   []float32
}

const (
	guardBatches = 3 // TrainBatch steps
	guardEpoch   = 2 // batches of the TrainEpoch after them
)

// referenceTrace drives core.Model.TrainStep by hand on a fresh trainer's
// Engine device over the batches the trainer draws: the unsharded
// single-device step a trainer's device group must reproduce. The
// trainer's group never runs; only its untouched replica 0 is trained.
func referenceTrace(t *testing.T, kind Kind, ds *datasets.Dataset, opt Options) engineTrace {
	t.Helper()
	src, err := New(kind, ds, opt)
	if err != nil {
		t.Fatal(err)
	}
	step := func() (float64, gpusim.Counters) {
		b, err := src.Prepare(src.NextDsts(), nil)
		if err != nil {
			t.Fatal(err)
		}
		before := src.Engine.Dev.Snapshot()
		in, err := src.input(b)
		if err != nil {
			t.Fatal(err)
		}
		loss, err := src.Model.TrainStep(src.Engine.Ctx, in, opt.LearningRate)
		if err != nil {
			t.Fatal(err)
		}
		in.X.Free()
		src.Engine.Ctx.EndBatch()
		b.Release()
		return loss, src.Engine.Dev.Snapshot().Sub(before)
	}
	var tr engineTrace
	for i := 0; i < guardBatches; i++ {
		loss, cnt := step()
		tr.losses = append(tr.losses, loss)
		tr.counters = append(tr.counters, cnt)
	}
	var sum float64
	for i := 0; i < guardEpoch; i++ {
		loss, _ := step()
		sum += loss
	}
	tr.epochLoss = sum / guardEpoch
	tr.weights = collectWeights(src)
	return tr
}

// trainerTrace runs the trainer's own TrainBatch and TrainEpoch.
func trainerTrace(t *testing.T, kind Kind, ds *datasets.Dataset, opt Options) engineTrace {
	t.Helper()
	tr, err := New(kind, ds, opt)
	if err != nil {
		t.Fatal(err)
	}
	var out engineTrace
	for i := 0; i < guardBatches; i++ {
		st, err := tr.TrainBatch()
		if err != nil {
			t.Fatal(err)
		}
		out.losses = append(out.losses, st.Loss)
		out.counters = append(out.counters, st.Counters)
	}
	if _, out.epochLoss, err = tr.TrainEpoch(guardEpoch); err != nil {
		t.Fatal(err)
	}
	out.weights = collectWeights(tr)
	return out
}

// TestTrainerMatchesTrainStep is the one-engine guard: the trainer's device
// group at NumDevices 0 (one device, unsharded) and at NumDevices 1 with
// GradShards 1 reproduces a hand-driven core.Model.TrainStep over the same
// prepared batches, bit for bit — losses, device counters and weights — for
// every framework, model and a light and a heavy dataset. Floats compare by
// their bits, so a diverging model's NaN compares too.
func TestTrainerMatchesTrainStep(t *testing.T) {
	for _, name := range []string{"products", "gowalla"} {
		ds, err := datasets.Generate(name, datasets.TestScale())
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range Kinds() {
			for _, model := range models.Names() {
				opt := quickOpts()
				opt.Model = model
				want := referenceTrace(t, kind, ds, opt)
				for _, cfg := range []struct{ devices, shards int }{{0, 0}, {1, 1}} {
					opt.NumDevices, opt.GradShards = cfg.devices, cfg.shards
					got := trainerTrace(t, kind, ds, opt)
					where := fmt.Sprintf("%s/%s/%s devices=%d shards=%d", name, kind, model, cfg.devices, cfg.shards)
					for i := range want.losses {
						if math.Float64bits(got.losses[i]) != math.Float64bits(want.losses[i]) {
							t.Errorf("%s: batch %d loss %v, TrainStep %v", where, i, got.losses[i], want.losses[i])
						}
						if got.counters[i] != want.counters[i] {
							t.Errorf("%s: batch %d counters %+v, TrainStep %+v", where, i, got.counters[i], want.counters[i])
						}
					}
					if math.Float64bits(got.epochLoss) != math.Float64bits(want.epochLoss) {
						t.Errorf("%s: epoch loss %v, TrainStep %v", where, got.epochLoss, want.epochLoss)
					}
					for i := range want.weights {
						if math.Float32bits(got.weights[i]) != math.Float32bits(want.weights[i]) {
							t.Errorf("%s: weight %d = %v, TrainStep %v", where, i, got.weights[i], want.weights[i])
							break
						}
					}
				}
			}
		}
	}
}
