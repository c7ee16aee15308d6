// Pooled matrix storage: the allocation-discipline layer of the substrate.
//
// The GraphTensor paper is fundamentally about eliminating memory bloat and
// redundant data movement on the device; this file applies the same
// discipline to the host substrate. Every hot path that used to call
// tensor.New (fresh garbage per op) can instead draw storage from a
// size-bucketed sync.Pool-backed arena and return it when the batch is
// done, so steady-state training performs no heap allocation for
// intermediate matrices.
//
// Two usage styles are supported:
//
//   - Get / Put (and GetSlice / PutSlice): explicit checkout/return of a
//     single matrix or float32 slice. A Get without a matching Put is
//     always safe — the storage is simply garbage collected.
//   - Arena: a batch-scoped handle that records every matrix checkout and
//     returns all of them in one Release() call at batch end, so kernel
//     code can allocate freely without tracking individual lifetimes.
//
// Storage is bucketed by capacity rounded up to the next power of two, so
// a matrix of any shape whose element count falls in the same bucket can
// reuse the same backing array. Buffers returned by Get/GetSlice are
// always zeroed, matching the semantics of New.
package tensor

import (
	"fmt"
	"math/bits"
	"sync"
)

const (
	// minBucketBits is the smallest pooled capacity (1<<minBucketBits
	// float32s); requests below it share the smallest bucket.
	minBucketBits = 6
	// maxBucketBits caps pooling at 1<<maxBucketBits float32s (256 MiB);
	// larger requests fall through to plain make and are never pooled.
	maxBucketBits = 26
)

// slicePools[b] holds *[]float32 whose capacity is exactly 1<<b.
var slicePools [maxBucketBits + 1]sync.Pool

// matrixHeaders recycles Matrix structs so Get/Put round-trips reuse the
// header as well as the storage.
var matrixHeaders = sync.Pool{New: func() any { return new(Matrix) }}

// bucketFor returns the bucket index for a request of n float32s, or -1
// when n is too large to pool.
func bucketFor(n int) int {
	if n <= 1<<minBucketBits {
		return minBucketBits
	}
	b := bits.Len(uint(n - 1)) // ceil(log2 n)
	if b > maxBucketBits {
		return -1
	}
	return b
}

// GetSlice returns a zeroed []float32 of length n drawn from the pool.
// Return it with PutSlice when done; dropping it instead is safe.
func GetSlice(n int) []float32 {
	if n < 0 {
		panic(fmt.Sprintf("tensor: GetSlice(%d)", n))
	}
	if n == 0 {
		return nil
	}
	b := bucketFor(n)
	if b < 0 {
		return make([]float32, n)
	}
	if v := slicePools[b].Get(); v != nil {
		s := (*v.(*[]float32))[:n]
		for i := range s {
			s[i] = 0
		}
		return s
	}
	return make([]float32, n, 1<<b)
}

// PutSlice returns s's backing array to the pool. The caller must not use
// s (or any alias of it) afterwards. Slices whose capacity is not an exact
// pool bucket (e.g. subslices or storage not from GetSlice) are dropped.
func PutSlice(s []float32) {
	c := cap(s)
	if c == 0 {
		return
	}
	b := bits.Len(uint(c - 1))
	if c != 1<<b || b < minBucketBits || b > maxBucketBits {
		return
	}
	full := s[:c]
	slicePools[b].Put(&full)
}

// Get returns a zeroed rows×cols matrix whose storage (and header) come
// from the pool. Return it with Put; dropping it instead is safe.
func Get(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimension %dx%d", rows, cols))
	}
	m := matrixHeaders.Get().(*Matrix)
	m.Rows, m.Cols = rows, cols
	m.Data = GetSlice(rows * cols)
	return m
}

// Put returns m's storage and header to the pool. The caller must not use
// m or m.Data afterwards. Put(nil) is a no-op.
func Put(m *Matrix) {
	if m == nil {
		return
	}
	PutSlice(m.Data)
	m.Rows, m.Cols, m.Data = 0, 0, nil
	matrixHeaders.Put(m)
}

// Arena is a batch-scoped allocation handle: every Get checkout is
// recorded, and Release returns all of them to the pool at once. An Arena
// is not safe for concurrent use; give each worker its own, or confine one
// arena to the (single) goroutine that drives a training batch.
type Arena struct {
	mats []*Matrix
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// Get returns a zeroed rows×cols pooled matrix owned by the arena.
func (a *Arena) Get(rows, cols int) *Matrix {
	m := Get(rows, cols)
	a.mats = append(a.mats, m)
	return m
}

// Release returns every checkout to the pool. All matrices obtained from
// the arena are invalid afterwards; the arena itself is empty and
// reusable.
func (a *Arena) Release() {
	for i, m := range a.mats {
		Put(m)
		a.mats[i] = nil
	}
	a.mats = a.mats[:0]
}

// Len reports the number of outstanding checkouts (for tests).
func (a *Arena) Len() int { return len(a.mats) }
