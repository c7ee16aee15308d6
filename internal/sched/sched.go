// Package sched is the substrate's persistent worker pool: the steady-state
// execution engine every parallel region in the repository dispatches onto
// (simulated kernel launches, group devices, large format translations).
//
// Before this package existed, each parallel region spawned fresh
// goroutines and allocated a sync.WaitGroup — cheap individually, but a
// structural tax paid on every simulated kernel launch of every training
// batch. The pool replaces that with a fixed set of long-lived workers fed
// through one channel: dispatching a region costs a pooled job checkout, a
// few atomic operations and one channel receive, and performs no heap
// allocation on the steady-state path when the caller passes a pooled
// context object and a top-level function (see RunChunk).
//
// Determinism contract: every index in [0, n) is processed by exactly one
// participant, and chunk boundaries are fixed by (n, chunk) alone — never
// by the worker count or by which participant claims a chunk — so callers
// may key per-chunk state off them (the parallel counting sort does), and
// any kernel whose per-index work is independent of the chunk split
// produces bitwise identical results at any worker count, including the
// serial path.
//
// Deadlock freedom: the dispatching goroutine always participates in its own
// region, and handing work to the pool is non-blocking — if every worker is
// busy (including nested dispatch from inside a worker), the caller simply
// executes all chunks itself. The pool can therefore never deadlock, only
// degrade to the serial path under saturation.
package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// maxWorkers bounds the pool size. It is far above any realistic GOMAXPROCS
// and exists only to keep a pathological caller from spawning unbounded
// goroutines through ensure.
const maxWorkers = 256

// job is one dispatched parallel region. Jobs are pooled and recycled; the
// refs counter tracks every participant that holds the pointer (the caller
// plus one per successful handoff), and the last release returns the job to
// the pool, so a worker still draining a finished job can never observe a
// reused one.
type job struct {
	fn      func(ctx any, lo, hi int)
	ctx     any
	n       int64 // total indices
	chunk   int64 // fixed chunk width
	nChunks int64
	next    atomic.Int64  // next chunk to claim
	filled  atomic.Int64  // chunks completed
	refs    atomic.Int64  // participants holding the job
	wake    chan struct{} // buffered 1; signaled when filled reaches nChunks
}

var jobPool = sync.Pool{New: func() any { return &job{wake: make(chan struct{}, 1)} }}

// work is the shared dispatch channel. Its capacity only bounds how many
// handoffs can be queued ahead of worker pickup; RunChunk never blocks on
// it.
var work = make(chan *job, maxWorkers)

var (
	spawnMu sync.Mutex
	spawned atomic.Int64
)

// ensure makes sure at least n workers are running.
func ensure(n int) {
	if n > maxWorkers {
		n = maxWorkers
	}
	if spawned.Load() >= int64(n) {
		return
	}
	spawnMu.Lock()
	for spawned.Load() < int64(n) {
		go worker()
		spawned.Add(1)
	}
	spawnMu.Unlock()
}

func worker() {
	for j := range work {
		j.run()
		j.release()
	}
}

// run claims and executes chunks until none remain. The participant that
// completes the final chunk signals the dispatcher.
func (j *job) run() {
	n, chunk, nChunks := j.n, j.chunk, j.nChunks
	for {
		c := j.next.Add(1) - 1
		if c >= nChunks {
			return
		}
		lo := c * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		j.fn(j.ctx, int(lo), int(hi))
		if j.filled.Add(1) == nChunks {
			j.wake <- struct{}{}
		}
	}
}

// release drops one participant reference; the last one recycles the job.
func (j *job) release() {
	if j.refs.Add(-1) == 0 {
		j.fn, j.ctx = nil, nil
		jobPool.Put(j)
	}
}

// Workers returns the parallelism a caller should request for a region of n
// independent units: GOMAXPROCS capped at n. A return of 1 means the caller
// should run its serial path (and skip building a dispatch context).
func Workers(n int) int {
	w := runtime.GOMAXPROCS(0)
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// RunChunk executes fn over [0, n) split into chunks of the given width,
// claimed dynamically by the caller and up to workers−1 pool workers. It
// returns when every index has been processed. Chunk boundaries are fixed
// by (n, chunk) alone, so which participant claims a chunk never affects
// which indices land in it. ctx is passed through to fn verbatim: pass a
// pooled pointer and a top-level function to keep the dispatch
// allocation-free. fn must be safe to call concurrently on disjoint ranges.
func RunChunk(n, chunk, workers int, ctx any, fn func(ctx any, lo, hi int)) {
	if n <= 0 {
		return
	}
	if chunk <= 0 {
		chunk = 1
	}
	nChunks := (n + chunk - 1) / chunk
	if workers > nChunks {
		workers = nChunks
	}
	if workers <= 1 {
		fn(ctx, 0, n)
		return
	}
	j := jobPool.Get().(*job)
	j.fn, j.ctx = fn, ctx
	j.n, j.chunk, j.nChunks = int64(n), int64(chunk), int64(nChunks)
	j.next.Store(0)
	j.filled.Store(0)
	j.refs.Store(1)

	helpers := workers - 1
	ensure(helpers)
	for i := 0; i < helpers; i++ {
		// The reference is taken before the handoff: a worker may finish and
		// release before the loop continues.
		j.refs.Add(1)
		select {
		case work <- j:
		default:
			// Pool saturated (or nested dispatch): keep the work local.
			j.refs.Add(-1)
			i = helpers // nothing more to hand off; run the rest here
		}
	}

	j.run()
	<-j.wake
	j.release()
}
