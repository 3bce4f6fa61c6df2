package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one request share Trace;
// Parent is the ID of the span that caused this one (0 for a root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Trace  uint64 `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	next  uint64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// activeSpan is an open span; End closes it.
type activeSpan struct {
	t *tracer
	s span
}

// Start opens a span named name under parent (nil for a new trace root).
func (t *tracer) Start(name string, parent *activeSpan) *activeSpan {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	s := span{ID: id, Trace: id, Name: name}
	if parent != nil {
		s.Parent, s.Trace = parent.s.ID, parent.s.Trace
	}
	s.Start = int64(time.Since(t.epoch))
	return &activeSpan{t: t, s: s}
}

// End closes the span and keeps it.
func (a *activeSpan) End() {
	if a == nil {
		return
	}
	a.s.End = int64(time.Since(a.t.epoch))
	a.t.mu.Lock()
	a.t.spans = append(a.t.spans, a.s)
	a.t.mu.Unlock()
}

// traced runs fn inside a span named name under parent.
func (t *tracer) traced(name string, parent *activeSpan, fn func()) {
	sp := t.Start(name, parent)
	fn()
	sp.End()
}

// Spans returns a copy of the recorded spans.
func (t *tracer) Spans() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// WriteJSONL writes one span per line to path.
func (t *tracer) WriteJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover (overlapping children count once).
func selfTimes(spans []span) map[uint64]time.Duration {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	total += curHi - curLo
	return time.Duration(total)
}

// layerSummary aggregates spans by name.
type layerSummary struct {
	Name      string
	Count     int
	Total     time.Duration
	Self      time.Duration
	durations []float64 // seconds, for percentiles
}

// P50 is the median span duration in seconds.
func (l layerSummary) P50() float64 { return median(append([]float64(nil), l.durations...)) }

// summarize folds spans into one summary per name, ordered by self time.
func summarize(spans []span) []layerSummary {
	self := selfTimes(spans)
	by := map[string]*layerSummary{}
	for _, s := range spans {
		l := by[s.Name]
		if l == nil {
			l = &layerSummary{Name: s.Name}
			by[s.Name] = l
		}
		l.Count++
		l.Total += s.dur()
		l.Self += self[s.ID]
		l.durations = append(l.durations, s.dur().Seconds())
	}
	out := make([]layerSummary, 0, len(by))
	for _, l := range by {
		out = append(out, *l)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// p50Of returns the median duration in seconds of spans named name.
func p50Of(sums []layerSummary, name string) (float64, bool) {
	for _, l := range sums {
		if l.Name == name {
			return l.P50(), true
		}
	}
	return 0, false
}

// printLayers renders the self-time table.
func printLayers(sums []layerSummary) {
	fmt.Printf("%-34s %8s %12s %12s %12s\n", "span", "count", "total_ms", "self_ms", "p50_ms")
	for _, l := range sums {
		fmt.Printf("%-34s %8d %12.3f %12.3f %12.4f\n", l.Name, l.Count,
			ms(l.Total), ms(l.Self), l.P50()*1e3)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
