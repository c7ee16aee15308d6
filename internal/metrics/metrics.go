// Package metrics provides the measurement plumbing the experiment harness
// shares: phase breakdowns (Fig 12a, Fig 16), progress timelines (Fig 20,
// Fig 12b) and normalized series formatting for the figure reproductions.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Breakdown accumulates named durations, e.g. per preprocessing task or per
// GPU kernel class.
type Breakdown struct {
	mu    sync.Mutex
	parts map[string]time.Duration
	order []string
}

// NewBreakdown returns an empty breakdown.
func NewBreakdown() *Breakdown {
	return &Breakdown{parts: map[string]time.Duration{}}
}

// Add accrues d under name.
func (b *Breakdown) Add(name string, d time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.parts[name]; !ok {
		b.order = append(b.order, name)
	}
	b.parts[name] += d
}

// Get returns the accumulated duration for name.
func (b *Breakdown) Get(name string) time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.parts[name]
}

// Total returns the sum over all parts.
func (b *Breakdown) Total() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	var t time.Duration
	for _, d := range b.parts {
		t += d
	}
	return t
}

// Names returns the part names in first-added order.
func (b *Breakdown) Names() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]string(nil), b.order...)
}

// Fractions returns each part as a fraction of the total, in first-added
// order.
func (b *Breakdown) Fractions() map[string]float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	var t time.Duration
	for _, d := range b.parts {
		t += d
	}
	out := make(map[string]float64, len(b.parts))
	for n, d := range b.parts {
		if t > 0 {
			out[n] = float64(d) / float64(t)
		}
	}
	return out
}

// String renders the breakdown as "name: dur (pct%)" lines.
func (b *Breakdown) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	var t time.Duration
	for _, d := range b.parts {
		t += d
	}
	var sb strings.Builder
	for _, n := range b.order {
		d := b.parts[n]
		pct := 0.0
		if t > 0 {
			pct = 100 * float64(d) / float64(t)
		}
		fmt.Fprintf(&sb, "%-12s %12v (%5.1f%%)\n", n, d.Round(time.Microsecond), pct)
	}
	return sb.String()
}

// Timeline records progress events of named tasks against a shared clock —
// the data behind the preprocessing timeline of Fig 20 ("% of handled
// vertices vs time").
type Timeline struct {
	mu     sync.Mutex
	start  time.Time
	events []Event
}

// Event is one progress sample: at Elapsed since the timeline start, Task
// had handled Done of Total units.
type Event struct {
	Task    string
	Elapsed time.Duration
	Done    int
	Total   int
}

// NewTimeline starts a timeline clock.
func NewTimeline() *Timeline { return &Timeline{start: time.Now()} }

// Record adds a progress sample for task.
func (t *Timeline) Record(task string, done, total int) {
	now := time.Since(t.start)
	t.mu.Lock()
	t.events = append(t.events, Event{Task: task, Elapsed: now, Done: done, Total: total})
	t.mu.Unlock()
}

// Events returns all samples sorted by elapsed time.
func (t *Timeline) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]Event(nil), t.events...)
	sort.Slice(out, func(i, j int) bool { return out[i].Elapsed < out[j].Elapsed })
	return out
}

// Completion returns, per task, the elapsed time of its last sample (the
// task completion time Fig 20 compares).
func (t *Timeline) Completion() map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, e := range t.Events() {
		if e.Elapsed > out[e.Task] {
			out[e.Task] = e.Elapsed
		}
	}
	return out
}

// Series is a labeled numeric series normalized for figure output.
type Series struct {
	Label  string
	Points []Point
}

// Point is one (x-label, value) pair of a figure series.
type Point struct {
	X     string
	Value float64
}

// FormatTable renders series side by side as an ASCII table, one row per X
// label, matching the row/series layout of the paper figures.
func FormatTable(title string, series []Series) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s ==\n", title)
	if len(series) == 0 {
		return sb.String()
	}
	fmt.Fprintf(&sb, "%-14s", "")
	for _, s := range series {
		fmt.Fprintf(&sb, "%14s", s.Label)
	}
	sb.WriteByte('\n')
	for i, p := range series[0].Points {
		fmt.Fprintf(&sb, "%-14s", p.X)
		for _, s := range series {
			if i < len(s.Points) {
				fmt.Fprintf(&sb, "%14.3f", s.Points[i].Value)
			} else {
				fmt.Fprintf(&sb, "%14s", "-")
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// LatencySummary condenses a latency sample into the tail figures a
// serving report quotes.
type LatencySummary struct {
	P50, P90, P99, Max time.Duration
}

// SummarizeLatencies computes nearest-rank quantiles over a copy of the
// sample (the input is not reordered). An empty sample yields zeros.
func SummarizeLatencies(ds []time.Duration) LatencySummary {
	if len(ds) == 0 {
		return LatencySummary{}
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := func(q float64) time.Duration {
		i := int(q * float64(len(sorted)))
		if i >= len(sorted) {
			i = len(sorted) - 1
		}
		return sorted[i]
	}
	return LatencySummary{P50: rank(0.50), P90: rank(0.90), P99: rank(0.99), Max: sorted[len(sorted)-1]}
}

// LatencyRing is a fixed-capacity, lock-free ring of the most recent
// latency samples. Writers call Record concurrently — the slot is claimed
// with one atomic add and written with one atomic store, so the serving
// engine's hot completion path never takes a lock — and readers merge the
// retained window with Snapshot/AppendTo. Reads race writes by design: a
// snapshot is a statistical sample of the most recent window, not a
// linearizable log, which is exactly what quantile reporting needs.
type LatencyRing struct {
	slots  []atomic.Int64
	cursor atomic.Uint64
}

// NewLatencyRing builds a ring retaining the capacity most recent samples
// (minimum 1).
func NewLatencyRing(capacity int) *LatencyRing {
	if capacity < 1 {
		capacity = 1
	}
	return &LatencyRing{slots: make([]atomic.Int64, capacity)}
}

// Record adds one sample, overwriting the oldest once the ring is full.
func (r *LatencyRing) Record(d time.Duration) {
	i := r.cursor.Add(1) - 1
	r.slots[i%uint64(len(r.slots))].Store(int64(d))
}

// Len returns the number of retained samples (≤ capacity).
func (r *LatencyRing) Len() int {
	n := r.cursor.Load()
	if n > uint64(len(r.slots)) {
		return len(r.slots)
	}
	return int(n)
}

// AppendTo appends the retained window to dst and returns it (merging the
// per-shard rings of a sharded server into one sample costs one append per
// ring, no intermediate copies).
func (r *LatencyRing) AppendTo(dst []time.Duration) []time.Duration {
	for i, n := 0, r.Len(); i < n; i++ {
		dst = append(dst, time.Duration(r.slots[i].Load()))
	}
	return dst
}

// Snapshot returns a copy of the retained window.
func (r *LatencyRing) Snapshot() []time.Duration {
	return r.AppendTo(make([]time.Duration, 0, r.Len()))
}

// GeoMean returns the geometric mean of vs (the paper's "on average" for
// ratios). Zero or negative values are skipped.
func GeoMean(vs []float64) float64 {
	var logSum float64
	n := 0
	for _, v := range vs {
		if v > 0 {
			logSum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

// Mean returns the arithmetic mean of vs (0 for an empty slice).
func Mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var s float64
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}
