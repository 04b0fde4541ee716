package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Spans of one campaign share a
// trace id; parent links a call to the span that made it (0 = root).
type span struct {
	Trace  string `json:"trace"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	// StartNs and EndNs are offsets from the tracer's creation.
	StartNs int64 `json:"start_ns"`
	EndNs   int64 `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced runs share the traced code paths at no cost.
type tracer struct {
	t0      time.Time
	next    atomic.Int64
	mu      sync.Mutex
	spans   []span
	kept    map[string]int
	dropped map[string]int
}

// maxSpansPerName caps the spans kept per name (~8 MB each): fleet-tiny's
// microsecond trials would otherwise record millions of trial and store
// spans, while the few HTTP and dispatch spans must all be kept.
const maxSpansPerName = 100_000

func newTracer() *tracer {
	return &tracer{t0: time.Now(), kept: map[string]int{}, dropped: map[string]int{}}
}

// id reserves a span id before the call, so child spans can name it.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

// record stores a finished span under a reserved id.
func (t *tracer) record(trace string, id, parent int64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.kept[name] < maxSpansPerName {
		t.kept[name]++
		t.spans = append(t.spans, span{
			Trace: trace, ID: id, Parent: parent, Name: name,
			StartNs: start.Sub(t.t0).Nanoseconds(), EndNs: end.Sub(t.t0).Nanoseconds(),
		})
	} else {
		t.dropped[name]++
	}
	t.mu.Unlock()
}

// leaf records a span that has no children.
func (t *tracer) leaf(trace string, parent int64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.record(trace, t.id(), parent, name, start, end)
}

// write dumps every span as one JSON line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes sums each span name's self time: its duration minus the part
// of its interval that its children cover (overlapping children, such as
// parallel trials, are counted once).
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int64][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range t.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
		covered, reach := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := max(k.StartNs, reach), min(k.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.Name] += time.Duration(s.EndNs - s.StartNs - covered)
	}
	return out
}

// report prints each layer's self time and kept span count. Past a
// name's cap, its spans' time counts in their parents' self time.
func (t *tracer) report(w io.Writer) {
	self := t.selfTimes()
	t.mu.Lock()
	defer t.mu.Unlock()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "self-time %-24s %12.3f ms  spans=%d", n, float64(self[n])/1e6, t.kept[n])
		if d := t.dropped[n]; d > 0 {
			fmt.Fprintf(w, " (+%d not kept)", d)
		}
		fmt.Fprintln(w)
	}
}
