package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into the program, recorded by the benchmark
// around the call. Spans of one sweep or request share a trace ID; the
// layer of a span is its name up to the first dot.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's origin
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"` // wall time attributed to this span alone
}

// tracer keeps spans in memory until the run ends. When off, every
// method is a no-op, so untraced runs pay only a branch per call.
type tracer struct {
	on     bool
	origin time.Time
	mu     sync.Mutex
	spans  []span // spans[id-1]
}

func newTracer(on bool) *tracer { return &tracer{on: on, origin: time.Now()} }

// begin opens a span under parent (0 for none), inheriting the parent's
// trace ID, and returns its ID (0 when tracing is off).
func (t *tracer) begin(name string, parent int) int {
	return t.beginIn(name, parent, "")
}

// beginIn opens a span with an explicit trace ID ("" inherits the
// parent's).
func (t *tracer) beginIn(name string, parent int, trace string) int {
	if !t.on {
		return 0
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	if trace == "" && parent > 0 {
		trace = t.spans[parent-1].Trace
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Trace: trace, Name: name, Start: now, End: -1})
	return len(t.spans)
}

// finish closes a span opened by begin.
func (t *tracer) finish(id int) {
	if !t.on || id == 0 {
		return
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// record adds a completed span whose times were observed elsewhere,
// such as a job's start and end read from a sweep's event stream.
func (t *tracer) record(name string, parent int, trace string, start, end time.Time) int {
	if !t.on {
		return 0
	}
	if end.Before(start) {
		end = start
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if trace == "" && parent > 0 {
		trace = t.spans[parent-1].Trace
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Trace: trace, Name: name,
		Start: start.Sub(t.origin).Nanoseconds(), End: end.Sub(t.origin).Nanoseconds()})
	return len(t.spans)
}

// layerOf is the layer a span name belongs to.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// attribution splits a root span's wall time among the spans under it.
type attribution struct {
	wall      float64            // the root span's duration, seconds
	remainder float64            // seconds no span under the root covers
	self      map[string]float64 // seconds attributed to each layer
}

// attribute splits the root span's wall time: at each instant the time
// goes to the innermost open spans under the root, shared equally when
// several are open at once (jobs of a pool, concurrent clients). An
// instant where no span under the root is open counts as remainder.
// For spans that never overlap this is the usual self time (duration
// minus the part its children cover), and the self times plus the
// remainder always sum to the root's wall time.
func (t *tracer) attribute(root int) attribution {
	t.mu.Lock()
	defer t.mu.Unlock()
	r := t.spans[root-1]
	a := attribution{wall: float64(r.End-r.Start) / 1e9, self: map[string]float64{}}

	// Spans under the root, clipped to its interval.
	under := func(s span) bool {
		for p := s.Parent; p != 0; p = t.spans[p-1].Parent {
			if p == root {
				return true
			}
		}
		return false
	}
	type edge struct {
		at    int64
		id    int
		start bool
	}
	var edges []edge
	for i := range t.spans {
		s := &t.spans[i]
		s.Self = 0
		if s.ID == root || s.End < 0 || !under(*s) {
			continue
		}
		lo, hi := max(s.Start, r.Start), min(s.End, r.End)
		if hi <= lo {
			continue
		}
		edges = append(edges, edge{lo, s.ID, true}, edge{hi, s.ID, false})
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].at < edges[j].at })

	active := map[int]bool{}
	self := map[int]float64{}
	prev := r.Start
	var remainderNs float64
	for i := 0; i <= len(edges); i++ {
		at := r.End
		if i < len(edges) {
			at = edges[i].at
		}
		if d := float64(at - prev); d > 0 {
			if len(active) == 0 {
				remainderNs += d
			} else {
				// Innermost open spans: those with no open descendant.
				outer := map[int]bool{}
				for id := range active {
					for p := t.spans[id-1].Parent; p != 0 && p != root; p = t.spans[p-1].Parent {
						outer[p] = true
					}
				}
				var inner []int
				for id := range active {
					if !outer[id] {
						inner = append(inner, id)
					}
				}
				for _, id := range inner {
					self[id] += d / float64(len(inner))
				}
			}
			prev = at
		}
		if i < len(edges) {
			if edges[i].start {
				active[edges[i].id] = true
			} else {
				delete(active, edges[i].id)
			}
		}
	}
	for id, ns := range self {
		t.spans[id-1].Self = int64(ns)
		a.self[layerOf(t.spans[id-1].Name)] += ns / 1e9
	}
	a.remainder = remainderNs / 1e9
	return a
}

// spanCost measures what recording one span (begin plus finish) costs
// on this host, in seconds.
func spanCost() float64 {
	t := newTracer(true)
	const n = 20000
	start := time.Now()
	for i := 0; i < n; i++ {
		t.finish(t.begin("cost.probe", 0))
	}
	return time.Since(start).Seconds() / n
}

// finishTrace attributes the traced run's wall time to layers, reports
// the shares and the remainder, estimates the tracing overhead, prints
// the attribution table and writes every span to a JSON file.
func (e *env) finishTrace(root int, stdout io.Writer, dir string) {
	a := e.tr.attribute(root)
	if a.wall <= 0 {
		return
	}
	e.layer["trace.remainder_frac"] = a.remainder / a.wall
	for _, l := range traceLayers {
		e.layer["trace.self_frac."+l] = a.self[l] / a.wall
	}
	// The tracing overhead is the recorder's measured cost per span
	// times the spans recorded, as a share of the traced wall time: the
	// difference between a traced and an untraced run is smaller than
	// the run-to-run spread, so it is measured where it is paid.
	e.layer["trace.overhead_frac"] = spanCost() * float64(len(e.tr.spans)) / a.wall

	layers := make([]string, 0, len(a.self))
	for l := range a.self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	fmt.Fprintf(stdout, "trace: %d spans over %.3f s of wall time\n", len(e.tr.spans), a.wall)
	for _, l := range layers {
		fmt.Fprintf(stdout, "trace: %-8s self %9.3f s  %6.2f%%\n", l, a.self[l], 100*a.self[l]/a.wall)
	}
	fmt.Fprintf(stdout, "trace: %-8s      %9.3f s  %6.2f%%\n", "(remain)", a.remainder, 100*a.remainder/a.wall)

	// Spans are written next to the run directory, which is removed.
	path := filepath.Join(filepath.Dir(dir), "trace-"+e.cfg.workload+".json")
	if b, err := json.Marshal(e.tr.spans); err == nil {
		if err := os.WriteFile(path, b, 0o644); err != nil {
			e.logf("writing spans: %v", err)
		}
	}
}
