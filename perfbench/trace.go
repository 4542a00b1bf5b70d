package main

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer. Spans of one client op share Op;
// the op's root span has Parent 0. Times are nanoseconds since the
// recorder started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A disabled recorder
// records nothing; the traced replay runs once with each to price tracing.
type recorder struct {
	on    bool
	t0    time.Time
	spans []span
}

func newRecorder(on bool) *recorder { return &recorder{on: on, t0: time.Now()} }

// start opens a span and returns its id (0 when disabled).
func (r *recorder) start(op, parent int, name string) int {
	if !r.on {
		return 0
	}
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Op: op, Name: name,
		Start: int64(time.Since(r.t0))})
	return len(r.spans)
}

// end closes span id.
func (r *recorder) end(id int) {
	if id == 0 {
		return
	}
	r.spans[id-1].End = int64(time.Since(r.t0))
}

// call runs fn inside a span.
func (r *recorder) call(op, parent int, name string, fn func()) {
	id := r.start(op, parent, name)
	fn()
	r.end(id)
}

// selfTimes returns each span's self time: its duration minus the part of
// it that its children cover.
func selfTimes(spans []span) map[int]int64 {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, reach := int64(0), s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, reach), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// checkSelfSums verifies, for every op, that the self times of all its
// spans add up to its root's duration: the spans of an op nest exactly.
func checkSelfSums(spans []span) error {
	self := selfTimes(spans)
	sum := map[int]int64{}
	root := map[int]span{}
	for _, s := range spans {
		sum[s.Op] += self[s.ID]
		if s.Parent == 0 {
			root[s.Op] = s
		}
	}
	for op, total := range sum {
		r, ok := root[op]
		if !ok {
			return fmt.Errorf("trace: op %d has no root span", op)
		}
		if d := r.End - r.Start; total != d {
			return fmt.Errorf("trace: op %d self times sum to %d ns, root %q lasted %d ns", op, total, r.Name, d)
		}
	}
	return nil
}

// layerSelf is one span name's self time over a traced run.
type layerSelf struct {
	Name     string  `json:"name"`
	Spans    int     `json:"spans"`
	TotalMS  float64 `json:"total_ms"`
	MedianMS float64 `json:"median_ms"`
}

// layerSelfTimes groups self times by span name, sorted by name.
func layerSelfTimes(spans []span) []layerSelf {
	self := selfTimes(spans)
	by := map[string][]float64{}
	for _, s := range spans {
		by[s.Name] = append(by[s.Name], float64(self[s.ID])/1e6)
	}
	out := make([]layerSelf, 0, len(by))
	for name, xs := range by {
		total := 0.0
		for _, x := range xs {
			total += x
		}
		out = append(out, layerSelf{Name: name, Spans: len(xs), TotalMS: total, MedianMS: median(xs)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// publishTrace checks the spans' nesting, stores them for the span file,
// and sets each layer's "<span name>_ms" metric to its median self time.
// Root spans (client ops) carry no layer metric.
func (b *bench) publishTrace(rec *recorder) {
	b.op(checkSelfSums(rec.spans))
	b.spans = rec.spans
	b.layers = layerSelfTimes(rec.spans)
	for _, l := range b.layers {
		if strings.Contains(l.Name, ".") {
			b.set(l.Name+"_ms", l.MedianMS, "ms")
		}
	}
	b.set("trace.spans", float64(len(rec.spans)), "count")
}

// passFunc replays up to limit ops of a workload's sequence — fewer if a
// non-zero budget runs out first — recording spans into rec, and returns
// how many ops ran and their wall time.
type passFunc func(rec *recorder, budget time.Duration, limit int) (int, time.Duration, error)

// tracePasses runs a workload's replay three times: untraced, to warm the
// process and fix how many ops fit a third of the run; traced; untraced
// again over the same ops. The last two differ only in span recording, so
// their wall times give the tracing overhead.
func tracePasses(b *bench, limit int, pass passFunc) error {
	n, _, err := pass(newRecorder(false), b.duration()/3, limit)
	if err != nil {
		return err
	}
	rec := newRecorder(true)
	_, traced, err := pass(rec, 0, n)
	if err != nil {
		return err
	}
	_, plain, err := pass(newRecorder(false), 0, n)
	if err != nil {
		return err
	}
	b.publishTrace(rec)
	b.set("trace.ops", float64(n), "count")
	b.set("trace.overhead_ratio", ratio(traced.Seconds()-plain.Seconds(), plain.Seconds()), "ratio")
	return nil
}
