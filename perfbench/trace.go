package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// tracer keeps the spans of a traced run in memory. Each span is one
// call the benchmark made into a layer: its name, start and end, the
// span that caused it, and the operation (request) it belongs to. A nil
// *tracer records nothing, so untraced code paths pay one nil check.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	now   func() time.Duration
	spans []span
}

type span struct {
	Name   string        `json:"name"`
	Op     int           `json:"op"`
	Parent int           `json:"parent"` // index of the parent span, -1 for an operation's root
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// newTracer returns a tracer on the wall clock.
func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	t.now = func() time.Duration { return time.Since(t.t0) }
	return t
}

// newCPUTracer returns a tracer whose spans are measured in process CPU
// time, which the host's preemption of the virtual CPUs does not move.
// It suits sequential work that is the process's only activity.
func newCPUTracer() *tracer { return &tracer{now: cpuTime} }

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: now, End: -1})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// add records an already-measured span (a phase timed around a call the
// tracer could not wrap) and returns its index. It needs a wall-clock
// tracer.
func (t *tracer) add(name string, op, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: start.Sub(t.t0), End: end.Sub(t.t0)})
	return len(t.spans) - 1
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval that its child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]time.Duration)
	for i, s := range t.spans {
		self[s.Name] += s.End - s.Start - covered(s, children[i])
	}
	return self
}

// covered is the length of the union of the children's intervals
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
	var total time.Duration
	cur, curEnd := time.Duration(-1), time.Duration(-1)
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > curEnd {
			if curEnd > cur {
				total += curEnd - cur
			}
			cur, curEnd = s, e
		} else if e > curEnd {
			curEnd = e
		}
	}
	if curEnd > cur {
		total += curEnd - cur
	}
	return total
}

// durations returns the duration of every span with the given name.
func (t *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// write dumps the spans as NDJSON once the run has ended.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
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

// spanPath is where a traced run leaves its spans: inside the build
// directory the benchmark already owns.
func spanPath(cfg config) string {
	return filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.ndjson", cfg.workload, cfg.seed))
}

func meanMs(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return ms(sum) / float64(len(ds))
}
