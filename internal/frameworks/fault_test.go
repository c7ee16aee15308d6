package frameworks

import (
	"testing"

	"graphtensor/internal/fault"
)

// TestTrainerFaultPlanShrinksGroup: Options.FaultPlan reaches the device
// group — a device killed mid-epoch shrinks the group, and the trainer's
// trajectory through the full production path (prefetch ring, sub-batch
// plans) stays bitwise identical to a fault-free run. Killing device 0 also
// checks that the trainer's Model follows the first live replica.
func TestTrainerFaultPlanShrinksGroup(t *testing.T) {
	ref := ckptTrainer(t, 1)
	mustTrain(t, ref, 4)
	refW := collectWeights(ref)

	for _, dead := range []int{1, 0} {
		opt := quickOpts()
		opt.NumDevices = 2
		opt.FaultPlan = fault.Schedule().Kill(dead, 1)
		tr, err := New(BaseGT, testDS(t), opt)
		if err != nil {
			t.Fatal(err)
		}
		mustTrain(t, tr, 4)
		if got := tr.Group().DeadDevices(); got != 1 {
			t.Fatalf("kill %d: DeadDevices = %d, want 1", dead, got)
		}
		if got := tr.Group().NumDevices(); got != 1 {
			t.Fatalf("kill %d: NumDevices = %d after the kill, want 1", dead, got)
		}
		for i, w := range collectWeights(tr) {
			if w != refW[i] {
				t.Fatalf("kill %d: weight[%d] = %v under device death, fault-free %v", dead, i, w, refW[i])
			}
		}
	}
}
