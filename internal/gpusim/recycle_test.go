package gpusim

import (
	"sync"
	"testing"
)

// TestKernelRecycleColdCache verifies that SMContext recycling across
// kernel launches preserves the cold-cache-per-kernel semantics: a second
// kernel replaying the same access pattern must report identical stats
// (same misses — nothing leaks from the previous launch's cache), and the
// recycled launch must not allocate fresh contexts.
func TestKernelRecycleColdCache(t *testing.T) {
	d := NewDevice(DefaultConfig())
	buf := d.MustAlloc(1<<20, "data")

	replay := func() KernelStats {
		k := d.StartKernel("replay")
		for smID := 0; smID < k.NumSMs(); smID += 7 {
			sm := k.SM(smID)
			for off := int64(0); off < 8<<10; off += 96 {
				sm.Read(buf.Addr(off), 64)
			}
			// Re-read a prefix: hits the second time within one kernel.
			for off := int64(0); off < 4<<10; off += 96 {
				sm.Read(buf.Addr(off), 64)
			}
			sm.Write(buf.Addr(0), 4096)
			sm.AddFLOPs(1000)
		}
		return k.Finish()
	}

	first := replay()
	for i := 0; i < 3; i++ {
		again := replay()
		if again != first {
			t.Fatalf("recycled kernel stats differ: run %d %+v != first %+v", i+2, again, first)
		}
	}
	if first.CacheHits == 0 || first.GlobalLoads == 0 {
		t.Fatalf("replay exercised no cache traffic: %+v", first)
	}
}

// TestLRUCacheEviction pins the index-based LRU behaviour: capacity is
// respected, the least recently used line is evicted first, and reset
// empties the cache without losing capacity.
func TestLRUCacheEviction(t *testing.T) {
	c := newLRUCache(2)
	if c.touch(10) {
		t.Fatal("first touch of 10 hit")
	}
	if c.touch(20) {
		t.Fatal("first touch of 20 hit")
	}
	if !c.touch(10) {
		t.Fatal("second touch of 10 missed")
	}
	// Insert a third line: 20 is now LRU and must be evicted.
	if c.touch(30) {
		t.Fatal("first touch of 30 hit")
	}
	if c.touch(20) {
		t.Fatal("touch of evicted 20 hit")
	}
	// 10 was evicted by 20's reinsertion (capacity 2: {30, 20}).
	if !c.touch(30) {
		t.Fatal("30 should still be resident")
	}
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
	c.reset()
	if c.len() != 0 {
		t.Fatalf("len after reset = %d, want 0", c.len())
	}
	if c.touch(30) {
		t.Fatal("post-reset touch of 30 hit: cache not cold")
	}
}

// freeLaunches counts the launch records on the device free list.
func freeLaunches(d *Device) int {
	d.launchMu.Lock()
	defer d.launchMu.Unlock()
	n := 0
	for l := d.launchFree; l != nil; l = l.next {
		n++
	}
	return n
}

// TestKernelFinishTwice pins Finish's idempotence on the launch pool: a
// second Finish returns the same stats, leaves the device counters alone
// and does not return the record to the free list again — so the next two
// concurrent launches get distinct records.
func TestKernelFinishTwice(t *testing.T) {
	d := NewDevice(DefaultConfig())
	buf := d.MustAlloc(1<<16, "data")
	k := d.StartKernel("twice")
	k.SM(0).Read(buf.Addr(0), 1024)
	k.SM(3).AddFLOPs(7)
	first := k.Finish()
	after := d.Snapshot()
	if again := k.Finish(); again != first {
		t.Fatalf("second Finish = %+v, first = %+v", again, first)
	}
	if d.Snapshot() != after {
		t.Fatalf("second Finish moved the device counters: %+v -> %+v", after, d.Snapshot())
	}
	if n := freeLaunches(d); n != 1 {
		t.Fatalf("free list holds %d records after a double Finish, want 1", n)
	}
	a := d.StartKernel("a")
	b := d.StartKernel("b")
	if a.rec == b.rec {
		t.Fatal("two live launches share one record")
	}
	a.Finish()
	b.Finish()
}

// TestStaleFinishCannotReachLaterLaunch finishes a launch through one copy
// of its handle, lets a later launch take over the record, and then
// finishes (and indexes) the stale copy: neither may touch the later
// launch, its stats or the free list.
func TestStaleFinishCannotReachLaterLaunch(t *testing.T) {
	d := NewDevice(DefaultConfig())
	buf := d.MustAlloc(1<<16, "data")
	k1 := d.StartKernel("first")
	stale := k1
	k1.SM(0).Read(buf.Addr(0), 256)
	k1.Finish()

	k2 := d.StartKernel("second")
	if k2.rec != k1.rec {
		t.Fatal("second launch did not reuse the finished record")
	}
	k2.SM(1).Read(buf.Addr(4096), 512)
	before := d.Snapshot()
	if st := stale.Finish(); st != (KernelStats{}) {
		t.Fatalf("stale Finish returned %+v, want zero stats", st)
	}
	if d.Snapshot() != before {
		t.Fatal("stale Finish flushed the later launch into the device counters")
	}
	if n := freeLaunches(d); n != 0 {
		t.Fatalf("stale Finish put the live record on the free list (%d free)", n)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("SM on a stale handle did not panic")
			}
		}()
		stale.SM(1)
	}()

	st := k2.Finish()
	if st.Name != "second" || st.GlobalLoads != 512/DefaultConfig().CacheLineBytes {
		t.Fatalf("later launch stats %+v, want its own 512-byte read", st)
	}
}

// TestKernelLaunchAllocFree ratchets the launch pool: once a record exists,
// a launch (checkout, SM reads, Finish) allocates nothing.
func TestKernelLaunchAllocFree(t *testing.T) {
	d := NewDevice(DefaultConfig())
	buf := d.MustAlloc(1<<16, "data")
	launch := func() {
		k := d.StartKernel("steady")
		for sm := 0; sm < 4; sm++ {
			k.SM(sm).Read(buf.Addr(int64(sm)*4096), 512)
		}
		k.Finish()
	}
	launch()
	if allocs := testing.AllocsPerRun(100, launch); allocs != 0 {
		t.Fatalf("steady-state launch allocates %.1f times, want 0", allocs)
	}
}

// TestConcurrentLaunches shares one device's launch pool between several
// goroutines: every launch must see a cold cache and report exactly its
// own traffic, which fails if two live launches ever share a record.
func TestConcurrentLaunches(t *testing.T) {
	d := NewDevice(DefaultConfig())
	buf := d.MustAlloc(1<<20, "data")
	line := DefaultConfig().CacheLineBytes
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := d.StartKernel("concurrent")
				sm := k.SM((g + i) % k.NumSMs())
				size := int64(g+1) * 1024
				sm.Read(buf.Addr(int64(g)<<16), size)
				sm.Read(buf.Addr(int64(g)<<16), size)
				st := k.Finish()
				if want := size / line; st.GlobalLoads != want || st.CacheHits != want {
					t.Errorf("goroutine %d launch %d: loads %d hits %d, want %d each", g, i, st.GlobalLoads, st.CacheHits, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
