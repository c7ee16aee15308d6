package gpusim

import (
	"container/list"
	"fmt"
	"testing"

	"graphtensor/internal/tensor"
)

// refLRU is the obviously-correct LRU the index-based cache is checked
// against: a map onto a doubly linked list, most recently used in front.
type refLRU struct {
	capacity int
	order    *list.List
	where    map[int64]*list.Element
}

func newRefLRU(capacity int) *refLRU {
	return &refLRU{capacity: capacity, order: list.New(), where: map[int64]*list.Element{}}
}

func (r *refLRU) touch(line int64) bool {
	if e, ok := r.where[line]; ok {
		r.order.MoveToFront(e)
		return true
	}
	if r.order.Len() >= r.capacity {
		lru := r.order.Back()
		delete(r.where, lru.Value.(int64))
		r.order.Remove(lru)
	}
	r.where[line] = r.order.PushFront(line)
	return false
}

func (r *refLRU) reset() {
	r.order.Init()
	clear(r.where)
}

// collidingLines returns n line addresses that all hash to one bucket of c.
func collidingLines(c *lruCache, n int) []int64 {
	const lineSize = 32
	target := c.bucket(0)
	out := []int64{0}
	for line := int64(lineSize); len(out) < n; line += lineSize {
		if c.bucket(line) == target {
			out = append(out, line)
		}
	}
	return out
}

// TestLRUCacheMatchesReference drives lruCache and refLRU with the same
// seeded touch/reset sequences and requires identical hit/miss results
// and occupancy at every step. Working sets are sized to keep occupancy
// at reset below the sparse-reset threshold, between it and capacity, and
// past capacity (eviction on most misses); every working set includes
// lines that share one hash bucket, so chains are walked, unlinked
// mid-chain on eviction and cleared by both reset paths.
func TestLRUCacheMatchesReference(t *testing.T) {
	for _, capacity := range []int{5, 512} {
		threshold := newLRUCache(capacity).sparseThreshold()
		for _, tc := range []struct {
			name    string
			lines   int
			sparse  bool // resets must take the sparse path
			full    bool // resets must take the full path
			evicted bool // the working set overflows the cache
		}{
			{name: "below-threshold", lines: max(1, threshold/2), sparse: true},
			{name: "above-threshold", lines: capacity, full: threshold < capacity},
			{name: "eviction", lines: 3 * capacity, full: threshold < capacity, evicted: true},
		} {
			t.Run(fmt.Sprintf("cap%d/%s", capacity, tc.name), func(t *testing.T) {
				c := newLRUCache(capacity)
				ref := newRefLRU(capacity)
				rng := tensor.NewRNG(uint64(capacity*31 + tc.lines))
				working := collidingLines(c, min(tc.lines, 6))
				for len(working) < tc.lines {
					working = append(working, int64(rng.Intn(1<<20))*32)
				}
				// Resets come rarely enough that the cache fills to the
				// working set between them.
				resetEvery := 8 * tc.lines
				var sparseResets, fullResets, evictions int
				for step := 0; step < 40*resetEvery; step++ {
					if rng.Intn(resetEvery) == 0 {
						if c.len() <= threshold {
							sparseResets++
						} else {
							fullResets++
						}
						c.reset()
						ref.reset()
						if c.len() != 0 {
							t.Fatalf("step %d: len %d after reset", step, c.len())
						}
						continue
					}
					line := working[rng.Intn(len(working))]
					full := c.len() == capacity
					got, want := c.touch(line), ref.touch(line)
					if got != want {
						t.Fatalf("step %d: touch(%d) hit=%v, reference hit=%v", step, line, got, want)
					}
					if !got && full {
						evictions++
					}
					if c.len() != ref.order.Len() {
						t.Fatalf("step %d: len %d, reference %d", step, c.len(), ref.order.Len())
					}
				}
				if tc.sparse && sparseResets == 0 {
					t.Errorf("no reset took the sparse path")
				}
				if tc.full && fullResets == 0 {
					t.Errorf("no reset took the full path")
				}
				if tc.evicted && evictions == 0 {
					t.Errorf("no touch evicted a line")
				}
			})
		}
	}
}
