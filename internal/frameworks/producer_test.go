package frameworks

import (
	"runtime"
	"testing"

	"graphtensor/internal/multigpu"
	"graphtensor/internal/pipeline"
)

// TestPooledProducerTrajectoryBitwise extends the determinism guard to the
// pooled producer: training through the prefetch ring — slot-recycled
// sampler results, layer structures and sub-batch plans, at GOMAXPROCS 8 —
// must reproduce bit for bit the trajectory of a run that allocates every
// batch fresh (nil slot) at GOMAXPROCS 1. Covered for both the default
// one-device, one-shard group and a 2-device sharded group.
func TestPooledProducerTrajectoryBitwise(t *testing.T) {
	ds := testDS(t)
	const epochs, batches = 3, 4
	for _, nd := range []int{0, 2} {
		opt := quickOpts()
		opt.NumDevices = nd

		pooled, err := New(PreproGT, ds, opt)
		if err != nil {
			t.Fatal(err)
		}
		prev := runtime.GOMAXPROCS(8)
		var pooledLoss []float64
		for e := 0; e < epochs; e++ {
			_, loss, err := pooled.TrainEpoch(batches)
			if err != nil {
				runtime.GOMAXPROCS(prev)
				t.Fatal(err)
			}
			pooledLoss = append(pooledLoss, loss)
		}
		runtime.GOMAXPROCS(1)

		fresh, err := New(PreproGT, ds, opt)
		if err != nil {
			runtime.GOMAXPROCS(prev)
			t.Fatal(err)
		}
		var freshLoss []float64
		for e := 0; e < epochs; e++ {
			var sum float64
			for i := 0; i < batches; i++ {
				b, err := fresh.Prepare(fresh.NextDsts(), nil)
				if err != nil {
					runtime.GOMAXPROCS(prev)
					t.Fatal(err)
				}
				loss, err := fresh.Compute(b)
				b.Release()
				if err != nil {
					runtime.GOMAXPROCS(prev)
					t.Fatal(err)
				}
				sum += loss
			}
			freshLoss = append(freshLoss, sum/batches)
		}
		runtime.GOMAXPROCS(prev)

		for e := range pooledLoss {
			if pooledLoss[e] != freshLoss[e] {
				t.Errorf("devices=%d epoch %d: pooled-producer loss %v != fresh-allocation loss %v",
					nd, e, pooledLoss[e], freshLoss[e])
			}
		}
		w1, w2 := collectWeights(pooled), collectWeights(fresh)
		for i := range w1 {
			if w1[i] != w2[i] {
				t.Fatalf("devices=%d: weight[%d] differs between pooled and fresh producer", nd, i)
			}
		}
	}
}

// TestPlanSlotAliasing: a shard plan recycled into slot N's next batch must
// be a different plan object (with disjoint shard storage) from the plan an
// in-flight batch in slot M still holds.
func TestPlanSlotAliasing(t *testing.T) {
	ds := testDS(t)
	opt := quickOpts()
	opt.NumDevices = 2
	tr, err := New(BaseGT, ds, opt)
	if err != nil {
		t.Fatal(err)
	}
	slotN, slotM := pipeline.NewSlot(), pipeline.NewSlot()
	dsts := tr.NextDsts()

	b1, err := tr.PrepareTrainInto(dsts, slotN)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := tr.PrepareTrainInto(tr.NextDsts(), slotM)
	if err != nil {
		t.Fatal(err)
	}
	plan1 := b1.SubBatches.(*multigpu.BatchPlan)
	plan2 := b2.SubBatches.(*multigpu.BatchPlan)
	if plan1 == plan2 {
		t.Fatal("distinct slots handed out the same plan")
	}
	b1.Release()
	slotN.Recycle(b1)

	b3, err := tr.PrepareTrainInto(dsts, slotN)
	if err != nil {
		t.Fatal(err)
	}
	plan3 := b3.SubBatches.(*multigpu.BatchPlan)
	if plan3 != plan1 {
		t.Error("slot N's recycled plan was not rebuilt in place for its next batch")
	}
	if plan3 == plan2 {
		t.Fatal("slot N's batch holds the plan of in-flight slot M")
	}
	for s := range plan3.Subs {
		a, b := &plan3.Subs[s], &plan2.Subs[s]
		if len(a.Dsts) > 0 && len(b.Dsts) > 0 && &a.Dsts[0] == &b.Dsts[0] {
			t.Fatalf("shard %d: slot N's plan aliases in-flight slot M's dst storage", s)
		}
		for li := range a.Layers {
			if a.Layers[li].CSR != nil && a.Layers[li].CSR == b.Layers[li].CSR {
				t.Fatalf("shard %d layer %d: localized CSR shared across slots", s, li)
			}
		}
	}
	b2.Release()
	b3.Release()
}
