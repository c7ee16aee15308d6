package sched

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// TestRunCoversEveryIndexOnce: every index in [0, n) is processed exactly
// once, for a spread of sizes, chunk widths and worker counts.
func TestRunCoversEveryIndexOnce(t *testing.T) {
	prev := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(prev)
	for _, n := range []int{1, 7, 8, 64, 257, 4096} {
		for _, workers := range []int{1, 2, 8, 64} {
			for _, chunk := range []int{0, 1, 3, 8, 1000} {
				hits := make([]int32, n)
				RunChunk(n, chunk, workers, &hits, func(ctx any, lo, hi int) {
					h := *ctx.(*[]int32)
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&h[i], 1)
					}
				})
				for i, h := range hits {
					if h != 1 {
						t.Fatalf("n=%d chunk=%d workers=%d: index %d processed %d times", n, chunk, workers, i, h)
					}
				}
			}
		}
	}
}

// TestRunChunkBoundaries: chunk boundaries are fixed by (n, chunk) alone —
// each invocation of fn sees exactly one [c·chunk, min((c+1)·chunk, n))
// range, regardless of who claims it.
func TestRunChunkBoundaries(t *testing.T) {
	prev := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(prev)
	n, chunk := 103, 10
	var bad atomic.Int32
	RunChunk(n, chunk, 8, nil, func(_ any, lo, hi int) {
		if lo%chunk != 0 {
			bad.Add(1)
		}
		want := lo + chunk
		if want > n {
			want = n
		}
		if hi != want {
			bad.Add(1)
		}
	})
	if bad.Load() != 0 {
		t.Fatal("observed chunk range not aligned to the fixed boundaries")
	}
}

// TestNestedRunDoesNotDeadlock: dispatch from inside a pool worker must
// degrade to local execution rather than deadlock.
func TestNestedRunDoesNotDeadlock(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	var total atomic.Int64
	RunChunk(64, 4, 4, nil, func(_ any, lo, hi int) {
		for i := lo; i < hi; i++ {
			RunChunk(32, 8, 4, nil, func(_ any, l, h int) {
				total.Add(int64(h - l))
			})
		}
	})
	if got := total.Load(); got != 64*32 {
		t.Fatalf("nested dispatch processed %d units, want %d", got, 64*32)
	}
}

// TestRunSerialFallback: workers<=1, or a region that fits in one chunk,
// must run inline on the calling goroutine as a single [0, n) call.
func TestRunSerialFallback(t *testing.T) {
	for _, c := range []struct{ chunk, workers int }{{3, 1}, {10, 8}, {64, 8}} {
		calls := 0
		RunChunk(10, c.chunk, c.workers, nil, func(_ any, lo, hi int) {
			calls++
			if lo != 0 || hi != 10 {
				t.Fatalf("chunk=%d workers=%d: serial fallback got [%d,%d)", c.chunk, c.workers, lo, hi)
			}
		})
		if calls != 1 {
			t.Fatalf("chunk=%d workers=%d: serial fallback made %d calls", c.chunk, c.workers, calls)
		}
	}
}

// TestRunZeroAlloc guards the dispatch discipline: with a pooled context
// pointer and a top-level worker function, a steady-state dispatch performs
// no heap allocation on the calling goroutine.
func TestRunZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates per dispatch; alloc counts are meaningless")
	}
	prev := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(prev)
	sink := make([]int32, 1024)
	ctx := &sink
	fn := func(c any, lo, hi int) {
		s := *c.(*[]int32)
		for i := lo; i < hi; i++ {
			s[i]++
		}
	}
	// A dispatch reaches steady state once the workers have picked up its
	// handoffs: the last participant to release the job returns it to the
	// pool for the next dispatch. testing.AllocsPerRun measures at
	// GOMAXPROCS=1, where a worker runs only when the caller yields, so
	// each measured dispatch yields until its handoffs are drained —
	// otherwise every dispatch would find its previous job still
	// referenced and draw a fresh one. The yield itself allocates nothing.
	dispatch := func() {
		RunChunk(len(sink), 32, 8, ctx, fn)
		for len(work) > 0 {
			runtime.Gosched()
		}
	}
	// Warm the pool (job structs, workers).
	for i := 0; i < 4; i++ {
		dispatch()
	}
	allocs := testing.AllocsPerRun(50, dispatch)
	if allocs != 0 {
		t.Errorf("RunChunk allocates %.1f times per dispatch, want 0", allocs)
	}
}
