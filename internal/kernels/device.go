// Package kernels implements the GNN compute kernels — edge weighting
// (SDDMM), aggregation (SpMM) and combination (dense MLP) — under the four
// scheduling strategies the paper compares:
//
//   - DL-approach (PyG/NeuGraph-like, §III Fig 5a): sparse→dense conversion
//     followed by dense DL operations; pays memory bloat.
//   - Graph-approach (DGL/FeatGraph-like, §III Fig 5b/5c): edge-wise thread
//     scheduling over COO with on-the-fly COO→CSR/CSC translation; pays
//     cache bloat and format translation.
//   - GNNAdvisor-like (§VI-A): neighbor-group scheduling over CSR with
//     cross-SM synchronization on shared dst outputs.
//   - NAPA (GraphTensor, §IV-B Fig 9): destination-centric, feature-wise
//     scheduling over CSR (FWP) / CSC (BWP); no translation, no bloats.
//
// All four produce bitwise-comparable results for the same semantic modes,
// which the test suite exploits; they differ only in the access pattern
// they replay into the gpusim device, and in the real host-side work
// (copies, sorts) each strategy genuinely performs.
package kernels

import (
	"sync"

	"graphtensor/internal/gpusim"
	"graphtensor/internal/sched"
	"graphtensor/internal/tensor"
)

// DeviceMatrix pairs a host-resident matrix (the real data our kernels
// compute on) with its simulated device allocation (the addresses the cache
// model sees).
type DeviceMatrix struct {
	M   *tensor.Matrix
	Buf *gpusim.Buffer
}

// AllocDeviceMatrix allocates a rows×cols device matrix, propagating OOM.
func AllocDeviceMatrix(dev *gpusim.Device, rows, cols int, label string) (*DeviceMatrix, error) {
	m := tensor.New(rows, cols)
	buf, err := dev.Alloc(m.Bytes(), label)
	if err != nil {
		return nil, err
	}
	return &DeviceMatrix{M: m, Buf: buf}, nil
}

// WrapDeviceMatrix registers an existing host matrix as device-resident.
func WrapDeviceMatrix(dev *gpusim.Device, m *tensor.Matrix, label string) (*DeviceMatrix, error) {
	buf, err := dev.Alloc(m.Bytes(), label)
	if err != nil {
		return nil, err
	}
	return &DeviceMatrix{M: m, Buf: buf}, nil
}

// RowAddr returns the device address of row i.
func (dm *DeviceMatrix) RowAddr(i int) int64 {
	return dm.Buf.Addr(int64(i) * int64(dm.M.Cols) * 4)
}

// RowBytes returns the byte length of one row.
func (dm *DeviceMatrix) RowBytes() int64 { return int64(dm.M.Cols) * 4 }

// Free releases the device allocation.
func (dm *DeviceMatrix) Free() {
	if dm != nil && dm.Buf != nil {
		dm.Buf.Free()
	}
}

// smRun carries one simulated kernel launch onto the shared worker pool.
// The dispatch unit is the SM index: each claimed SM is processed start to
// finish by exactly one participant, so per-SM access streams — and with
// them the modeled counters — are deterministic at any worker count.
// Instances are pooled so steady-state launches allocate only the kernel
// body's own closure.
type smRun struct {
	k      gpusim.Kernel
	n      int
	numSMs int
	chunk  int
	fn     func(sm *gpusim.SMContext, unit int)
	fnIdx  func(sm *gpusim.SMContext, smID, lo, hi int)
}

var smRunPool = sync.Pool{New: func() any { return new(smRun) }}

func getSMRun(k gpusim.Kernel, n int) *smRun {
	r := smRunPool.Get().(*smRun)
	r.k, r.n, r.numSMs = k, n, k.NumSMs()
	return r
}

func putSMRun(r *smRun) {
	*r = smRun{}
	smRunPool.Put(r)
}

// smStripeTask replays units u ≡ smID (mod numSMs) on each claimed SM, in
// ascending unit order — the same per-SM stream the serial path produces.
func smStripeTask(ctx any, lo, hi int) {
	r := ctx.(*smRun)
	for smID := lo; smID < hi; smID++ {
		sm := r.k.SM(smID)
		for u := smID; u < r.n; u += r.numSMs {
			r.fn(sm, u)
		}
	}
}

// smChunkTask hands each claimed SM its contiguous [lo,hi) unit range.
func smChunkTask(ctx any, lo, hi int) {
	r := ctx.(*smRun)
	for smID := lo; smID < hi; smID++ {
		cLo, cHi := smID*r.chunk, (smID+1)*r.chunk
		if cLo >= r.n {
			return
		}
		if cHi > r.n {
			cHi = r.n
		}
		r.fnIdx(r.k.SM(smID), smID, cLo, cHi)
	}
}

// runSMs executes a kernel across the simulated SMs: work unit u of n is
// processed on SM (u mod NumSMs) in per-SM submission order. Real
// parallelism dispatches SM indices onto the shared worker pool; each SM
// context is claimed by exactly one participant, so access recording is
// race-free and the per-SM access streams are deterministic.
func runSMs(k gpusim.Kernel, n int, fn func(sm *gpusim.SMContext, unit int)) {
	numSMs := k.NumSMs()
	workers := sched.Workers(numSMs)
	if n == 0 {
		return
	}
	if workers <= 1 {
		for u := 0; u < n; u++ {
			fn(k.SM(u%numSMs), u)
		}
		return
	}
	r := getSMRun(k, n)
	r.fn = fn
	sched.RunChunk(numSMs, 1, workers, r, smStripeTask)
	putSMRun(r)
}

// runSMsChunked partitions n work units into NumSMs contiguous chunks, one
// per SM (the scheduling NAPA uses: all features of one dst stay on one
// SM, and consecutive dsts map to the same SM run).
func runSMsChunked(k gpusim.Kernel, n int, fn func(sm *gpusim.SMContext, lo, hi int)) {
	runSMsChunkedIdx(k, n, func(sm *gpusim.SMContext, _, lo, hi int) { fn(sm, lo, hi) })
}

// runSMsChunkedIdx is runSMsChunked but also hands fn the SM index, which
// kernels use to pick their per-SM scratch rows from the Ctx workspace.
func runSMsChunkedIdx(k gpusim.Kernel, n int, fn func(sm *gpusim.SMContext, smID, lo, hi int)) {
	numSMs := k.NumSMs()
	workers := sched.Workers(numSMs)
	if n == 0 {
		return
	}
	chunk := (n + numSMs - 1) / numSMs
	if workers <= 1 {
		for smID := 0; smID < numSMs; smID++ {
			lo, hi := smID*chunk, (smID+1)*chunk
			if lo >= n {
				break
			}
			if hi > n {
				hi = n
			}
			fn(k.SM(smID), smID, lo, hi)
		}
		return
	}
	r := getSMRun(k, n)
	r.chunk, r.fnIdx = chunk, fn
	sched.RunChunk(numSMs, 1, workers, r, smChunkTask)
	putSMRun(r)
}
