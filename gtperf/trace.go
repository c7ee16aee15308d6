package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a module. Name is "<module>.<operation>";
// ID is the batch or query the call served (-1 for none); Parent indexes
// the enclosing span (-1 for a root). Track 0 spans are the steps the
// parent waits on, and count toward trace coverage; track 1 spans run
// beside them (the prefetch producer's preparation, Submit calls).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	ID     int64  `json:"id"`
	Track  int8   `json:"track"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps every span in memory until the run ends. A nil tracer
// records nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int32, id int64, track int8) int32 {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, ID: id, Track: track})
	i := int32(len(t.spans) - 1)
	t.mu.Unlock()
	return i
}

// end closes span i.
func (t *tracer) end(i int32) {
	if t == nil || i < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// add records an already-measured span.
func (t *tracer) add(name string, start, end time.Time, parent int32, id int64, track int8) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
		Parent: parent, ID: id, Track: track})
	t.mu.Unlock()
}

// durations returns the durations of every closed span with the name.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, s.dur())
		}
	}
	return out
}

// coverage is the share of the root spans' wall time covered by the union
// of their track-0 children: the part of each loop the timed calls explain.
func (t *tracer) coverage(roots ...int32) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var covered, total int64
	for _, r := range roots {
		root := t.spans[r]
		var kids []span
		for _, s := range t.spans {
			if s.Parent == r && s.Track == 0 && s.End >= 0 {
				kids = append(kids, s)
			}
		}
		covered += unionLen(kids, root.Start, root.End)
		total += root.End - root.Start
	}
	if total <= 0 {
		return 0
	}
	return float64(covered) / float64(total)
}

// unionLen is the length of the union of the spans' intervals clipped to
// [lo, hi].
func unionLen(ss []span, lo, hi int64) int64 {
	sort.Slice(ss, func(i, j int) bool { return ss[i].Start < ss[j].Start })
	var total, curS, curE int64 = 0, -1, -1
	for _, s := range ss {
		a, b := max64(s.Start, lo), min64(s.End, hi)
		if b <= a {
			continue
		}
		if a > curE {
			total += curE - curS
			curS, curE = a, b
		} else if b > curE {
			curE = b
		}
	}
	return total + curE - curS
}

// selfTimes derives each module's self time: the summed duration of its
// spans minus the part of each span its children cover. Spans that overlap
// each other (concurrent queries) add up, so a module's self time can
// exceed the wall time.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int32][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := map[string]time.Duration{}
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		mod, _, _ := strings.Cut(s.Name, ".")
		self[mod] += s.dur() - time.Duration(unionLen(kids[int32(i)], s.Start, s.End))
	}
	return self
}

// write stores the spans and the per-module self times under
// .bench_build/trace/ and returns the file's path.
func (t *tracer) write(workload string, seed uint64) (string, error) {
	dir := filepath.Join(".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	self := map[string]float64{}
	for m, d := range t.selfTimes() {
		self[m] = float64(d) / 1e6
	}
	t.mu.Lock()
	raw, err := json.Marshal(struct {
		Workload string             `json:"workload"`
		Seed     uint64             `json:"seed"`
		SelfMs   map[string]float64 `json:"self_ms"`
		Spans    []span             `json:"spans"`
	}{workload, seed, self, t.spans})
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	return path, os.WriteFile(path, raw, 0o644)
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
