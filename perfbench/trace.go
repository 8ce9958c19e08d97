package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// tracer records spans in memory; they are written once, at the end of
// the run, so recording costs a mutex and an append. Every method is safe
// on a nil tracer, which is how untraced runs skip recording.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

type span struct {
	name       string
	parent     int // index into spans, -1 for a root
	start, end time.Duration
	tid        int // display lane in the trace viewer
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (-1 for a root) and returns its id.
func (t *tracer) begin(name string, parent, tid int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, parent: parent, start: now, end: -1, tid: tid})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// add records a finished span with explicit bounds.
func (t *tracer) add(name string, parent, tid int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, parent: parent,
		start: start.Sub(t.t0), end: end.Sub(t.t0), tid: tid})
	return len(t.spans) - 1
}

// layerTimes returns, per span name, the summed duration and the summed
// self time: a span's duration minus the part of its interval that its
// direct children cover (children on parallel connections overlap, so
// their union is subtracted, not their sum).
func (t *tracer) layerTimes() (total, self map[string]float64) {
	total, self = map[string]float64{}, map[string]float64{}
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.parent >= 0 && s.end >= 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	for i, s := range t.spans {
		if s.end < 0 {
			continue
		}
		d := s.end - s.start
		total[s.name] += d.Seconds()
		self[s.name] += (d - covered(s, children[i])).Seconds()
	}
	return total, self
}

// covered is the length of the union of the children's intervals within
// the parent's.
func covered(parent span, children []span) time.Duration {
	sort.Slice(children, func(a, b int) bool { return children[a].start < children[b].start })
	var sum time.Duration
	lo, hi := parent.start, parent.start
	for _, c := range children {
		start, end := max(c.start, parent.start), min(c.end, parent.end)
		if end <= start {
			continue
		}
		if start > hi {
			sum += hi - lo
			lo = start
		}
		hi = max(hi, end)
	}
	return sum + hi - lo
}

// report prints every layer's total and self time.
func (t *tracer) report(w io.Writer) {
	if t == nil {
		return
	}
	total, self := t.layerTimes()
	names := make([]string, 0, len(total))
	for n := range total {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-28s %12s %12s\n", "span", "total_s", "self_s")
	for _, n := range names {
		fmt.Fprintf(w, "%-28s %12.6f %12.6f\n", n, total[n], self[n])
	}
}

// writeChrome writes the spans as Chrome trace-event JSON (complete "X"
// events), loadable in Perfetto or chrome://tracing.
func (t *tracer) writeChrome(path string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	type event struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
	}
	evs := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		if s.end < 0 {
			continue
		}
		evs = append(evs, event{Name: s.name, Ph: "X", Pid: 1, Tid: s.tid,
			Ts:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64((s.end - s.start).Nanoseconds()) / 1e3})
	}
	t.mu.Unlock()
	b, err := json.Marshal(map[string]any{"traceEvents": evs})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
