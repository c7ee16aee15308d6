package gpusim

// Kernel is a handle to one simulated GPU kernel launch. Obtain per-SM
// contexts with SM(i), record accesses from (at most) one goroutine per
// context, then call Finish to flush per-SM tallies into the device
// counters and retrieve the kernel's own stats.
//
// The handle is a value: the launch's per-SM contexts live in a pooled
// launch record, and the handle names the record generation it owns, so
// a launch allocates nothing and a handle outliving its launch can never
// reach the record's next owner.
type Kernel struct {
	rec  *launch
	gen  uint64
	name string
	done bool
	st   KernelStats
}

// launch is a pooled launch record: one context per SM plus the
// generation of its current owner. Finish bumps gen before the record
// re-enters the device free list, which retires every handle to the
// finished launch.
type launch struct {
	dev  *Device
	gen  uint64
	sms  []*SMContext
	next *launch // free-list link
}

// KernelStats summarizes one kernel launch.
type KernelStats struct {
	Name         string
	FLOPs        int64
	GlobalLoads  int64
	GlobalStores int64
	CacheHits    int64
	CacheBytes   int64
}

// StartKernel begins a kernel launch. Each SM starts with a cold cache,
// which matches the paper's per-kernel Nsight measurements. The launch
// record comes from the device free list (a fresh one only when every
// record is in flight) and its contexts are reset here, at checkout, at a
// cost proportional to the lines the previous launch left resident.
// SMContexts obtained via SM must not be used after Finish.
func (d *Device) StartKernel(name string) Kernel {
	d.launches.Add(1)
	d.launchMu.Lock()
	l := d.launchFree
	if l != nil {
		d.launchFree = l.next
	}
	d.launchMu.Unlock()
	if l == nil {
		l = &launch{dev: d, sms: make([]*SMContext, d.cfg.NumSMs)}
		for i := range l.sms {
			l.sms[i] = newSMContext(d.cfg)
		}
	} else {
		l.next = nil
		for _, sm := range l.sms {
			sm.reset()
		}
	}
	return Kernel{rec: l, gen: l.gen, name: name}
}

// NumSMs returns the number of per-kernel SM contexts.
func (k *Kernel) NumSMs() int { return len(k.rec.sms) }

// SM returns the context of streaming multiprocessor i. It panics once
// the launch is finished: the record may already serve another launch.
func (k *Kernel) SM(i int) *SMContext {
	if k.rec.gen != k.gen {
		panic("gpusim: SM on a finished kernel")
	}
	return k.rec.sms[i]
}

// Finish aggregates all SM contexts into the device counters, returns the
// launch record to the device free list and returns the kernel's stats.
// It is idempotent on a handle: a second call returns the same stats and
// touches nothing. A Finish through a copy of a handle whose launch was
// already finished is stale: it returns zero stats and never reaches the
// record, which may belong to a later launch by then.
func (k *Kernel) Finish() KernelStats {
	if k.done {
		return k.st
	}
	k.done = true
	l := k.rec
	if l.gen != k.gen {
		return KernelStats{}
	}
	dev := l.dev
	st := KernelStats{Name: k.name}
	for _, sm := range l.sms {
		st.FLOPs += sm.flops
		st.GlobalLoads += sm.loads
		st.GlobalStores += sm.stores
		st.CacheHits += sm.hits
	}
	st.CacheBytes = st.GlobalLoads * dev.cfg.CacheLineBytes
	dev.flops.Add(st.FLOPs)
	dev.globalLoads.Add(st.GlobalLoads)
	dev.globalStores.Add(st.GlobalStores)
	dev.cacheHits.Add(st.CacheHits)
	dev.cacheBytes.Add(st.CacheBytes)
	k.st = st
	l.gen++
	dev.launchMu.Lock()
	l.next = dev.launchFree
	dev.launchFree = l
	dev.launchMu.Unlock()
	return st
}

// SMContext records the memory traffic of one streaming multiprocessor
// during one kernel. Not safe for concurrent use: confine each context to a
// single goroutine (the simulator's analogue of "one thread block at a time
// per SM slot").
type SMContext struct {
	cache    *lruCache
	lineMask int64
	lineSize int64
	flops    int64
	loads    int64
	stores   int64
	hits     int64
}

func newSMContext(cfg Config) *SMContext {
	lines := int(cfg.CacheBytesPerSM / cfg.CacheLineBytes)
	if lines < 1 {
		lines = 1
	}
	return &SMContext{
		cache:    newLRUCache(lines),
		lineSize: cfg.CacheLineBytes,
		lineMask: ^(cfg.CacheLineBytes - 1),
	}
}

// reset clears the context for recycling into the next kernel launch: the
// counters drop to zero and the cache is emptied (cold per kernel), with
// its slots and bucket table retained for reuse.
func (sm *SMContext) reset() {
	sm.flops, sm.loads, sm.stores, sm.hits = 0, 0, 0, 0
	sm.cache.reset()
}

// Read simulates a load of size bytes at addr: each touched cache line is
// either served from the SM cache (hit) or filled from global memory (one
// global load, lineSize bytes of cache traffic).
func (sm *SMContext) Read(addr, size int64) {
	if size <= 0 {
		return
	}
	first := addr & sm.lineMask
	last := (addr + size - 1) & sm.lineMask
	for line := first; line <= last; line += sm.lineSize {
		if sm.cache.touch(line) {
			sm.hits++
		} else {
			sm.loads++
		}
	}
}

// Write simulates a store of size bytes at addr. The model is write-through
// without write-allocate: each touched line counts one global store and
// does not displace cache contents, matching how GPU L1s treat global
// stores by default.
func (sm *SMContext) Write(addr, size int64) {
	if size <= 0 {
		return
	}
	first := addr & sm.lineMask
	last := (addr + size - 1) & sm.lineMask
	sm.stores += (last-first)/sm.lineSize + 1
}

// AddFLOPs credits n floating point operations to this SM.
func (sm *SMContext) AddFLOPs(n int64) { sm.flops += n }

// lruCache is a line-granular fully-associative LRU cache. Cache touches
// are the single hottest operation of the whole simulator (every modeled
// load funnels through here), so the implementation is index-based and
// pointer-free: slots live in one flat slice linked by int32 indices, and
// lookup goes through an open hash table of bucket heads chained through
// the slots. Nothing here allocates after construction, reset costs time
// in proportion to the resident lines (see reset), and the garbage
// collector never traverses the structure.
type lruCache struct {
	capacity int
	slots    []lruSlot // slot arena, len == capacity
	buckets  []int32   // hash-chain heads, -1 = empty; len is a power of two
	mask     uint32
	used     int32 // slots in use; slots [0,used) are resident lines
	head     int32 // most recently used, -1 when empty
	tail     int32 // least recently used, -1 when empty
}

// lruSlot is one resident cache line: doubly linked in LRU order via
// prev/next and singly linked in its hash bucket via hnext.
type lruSlot struct {
	key        int64
	prev, next int32
	hnext      int32
}

func newLRUCache(capacity int) *lruCache {
	nb := 1
	for nb < 2*capacity {
		nb <<= 1
	}
	c := &lruCache{
		capacity: capacity,
		slots:    make([]lruSlot, capacity),
		buckets:  make([]int32, nb),
		mask:     uint32(nb - 1),
		head:     -1,
		tail:     -1,
	}
	for i := range c.buckets {
		c.buckets[i] = -1
	}
	return c
}

// bucket hashes a line address (always line-size aligned, so the low bits
// carry no entropy) onto a bucket index via a Fibonacci multiply.
func (c *lruCache) bucket(line int64) uint32 {
	return uint32((uint64(line)*0x9e3779b97f4a7c15)>>33) & c.mask
}

// touch marks line as most recently used, inserting (and evicting the LRU
// line if full) when absent. It returns true on hit.
func (c *lruCache) touch(line int64) bool {
	b := c.bucket(line)
	for i := c.buckets[b]; i >= 0; i = c.slots[i].hnext {
		if c.slots[i].key == line {
			c.moveToFront(i)
			return true
		}
	}
	var idx int32
	if c.used >= int32(c.capacity) {
		// Reuse the evicted LRU slot for the incoming line.
		idx = c.tail
		c.listRemove(idx)
		c.hashRemove(idx)
	} else {
		idx = c.used
		c.used++
	}
	s := &c.slots[idx]
	s.key = line
	s.hnext = c.buckets[b]
	c.buckets[b] = idx
	c.pushFront(idx)
	return false
}

// reset empties the cache with no allocation or pointer traffic, ready for
// the next (cold-cache) kernel launch. Its cost follows occupancy, not
// table size: slots [0,used) hold exactly the resident lines, so while
// few are resident only their bucket heads are cleared — an SM a launch
// never touched costs O(1) — and a well-filled cache falls back to
// clearing the whole bucket table.
func (c *lruCache) reset() {
	if int(c.used) <= c.sparseThreshold() {
		for i := range c.slots[:c.used] {
			c.buckets[c.bucket(c.slots[i].key)] = -1
		}
	} else {
		for i := range c.buckets {
			c.buckets[i] = -1
		}
	}
	c.used, c.head, c.tail = 0, -1, -1
}

// sparseThreshold is the occupancy up to which reset clears only the
// buckets the resident lines hash to (one hash and one scattered store per
// line); fuller caches clear the whole table in one sequential pass,
// which costs about the same as a quarter-table of scattered stores.
func (c *lruCache) sparseThreshold() int { return len(c.buckets) / 4 }

func (c *lruCache) pushFront(idx int32) {
	s := &c.slots[idx]
	s.prev = -1
	s.next = c.head
	if c.head >= 0 {
		c.slots[c.head].prev = idx
	}
	c.head = idx
	if c.tail < 0 {
		c.tail = idx
	}
}

func (c *lruCache) listRemove(idx int32) {
	s := &c.slots[idx]
	if s.prev >= 0 {
		c.slots[s.prev].next = s.next
	} else {
		c.head = s.next
	}
	if s.next >= 0 {
		c.slots[s.next].prev = s.prev
	} else {
		c.tail = s.prev
	}
	s.prev, s.next = -1, -1
}

func (c *lruCache) hashRemove(idx int32) {
	b := c.bucket(c.slots[idx].key)
	if c.buckets[b] == idx {
		c.buckets[b] = c.slots[idx].hnext
		return
	}
	for i := c.buckets[b]; i >= 0; i = c.slots[i].hnext {
		if c.slots[i].hnext == idx {
			c.slots[i].hnext = c.slots[idx].hnext
			return
		}
	}
}

func (c *lruCache) moveToFront(idx int32) {
	if c.head == idx {
		return
	}
	c.listRemove(idx)
	c.pushFront(idx)
}

// len reports the number of resident lines (for tests).
func (c *lruCache) len() int { return int(c.used) }
