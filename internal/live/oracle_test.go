package live

import (
	"sort"

	ival "graphite/internal/interval"
	"graphite/internal/stream"
	"graphite/internal/tgraph"
)

// oracle is the map-walking materializer stream.Accumulator.Graph used
// before epochs were derived row by row: it folds events into per-entity
// maps and rebuilds the whole graph through tgraph.Builder on every call.
// It is the reference every published epoch must equal. Events reach it
// only after live.Graph accepted them, so it does not validate.
type oracle struct {
	vspans map[tgraph.VertexID]*oracleSpan
	espans map[tgraph.EdgeID]*oracleSpan
	etails map[tgraph.EdgeID][2]tgraph.VertexID

	vprops map[tgraph.VertexID]map[string][]tgraph.PropEntry
	eprops map[tgraph.EdgeID]map[string][]tgraph.PropEntry
	vruns  map[tgraph.VertexID]map[string]oracleRun
	eruns  map[tgraph.EdgeID]map[string]oracleRun
}

type oracleSpan struct {
	start  ival.Time
	closed bool
	end    ival.Time
}

type oracleRun struct {
	start ival.Time
	value int64
}

func newOracle() *oracle {
	return &oracle{
		vspans: map[tgraph.VertexID]*oracleSpan{},
		espans: map[tgraph.EdgeID]*oracleSpan{},
		etails: map[tgraph.EdgeID][2]tgraph.VertexID{},
		vprops: map[tgraph.VertexID]map[string][]tgraph.PropEntry{},
		eprops: map[tgraph.EdgeID]map[string][]tgraph.PropEntry{},
		vruns:  map[tgraph.VertexID]map[string]oracleRun{},
		eruns:  map[tgraph.EdgeID]map[string]oracleRun{},
	}
}

func oracleSink[K comparable](m map[K]map[string][]tgraph.PropEntry, id K) map[string][]tgraph.PropEntry {
	p := m[id]
	if p == nil {
		p = map[string][]tgraph.PropEntry{}
		m[id] = p
	}
	return p
}

func oracleRuns[K comparable](m map[K]map[string]oracleRun, id K) map[string]oracleRun {
	r := m[id]
	if r == nil {
		r = map[string]oracleRun{}
		m[id] = r
	}
	return r
}

func (o *oracle) apply(batch []stream.Event) {
	for _, ev := range batch {
		switch ev.Op {
		case stream.AddVertex:
			o.vspans[ev.V] = &oracleSpan{start: ev.T}
		case stream.RemoveVertex:
			s := o.vspans[ev.V]
			s.closed, s.end = true, ev.T
			o.closeRuns(o.vruns[ev.V], oracleSink(o.vprops, ev.V), ev.T)
			delete(o.vruns, ev.V)
		case stream.AddEdge:
			o.espans[ev.E] = &oracleSpan{start: ev.T}
			o.etails[ev.E] = [2]tgraph.VertexID{ev.Src, ev.Dst}
		case stream.RemoveEdge:
			s := o.espans[ev.E]
			s.closed, s.end = true, ev.T
			o.closeRuns(o.eruns[ev.E], oracleSink(o.eprops, ev.E), ev.T)
			delete(o.eruns, ev.E)
		case stream.SetVertexProp:
			o.setProp(oracleRuns(o.vruns, ev.V), oracleSink(o.vprops, ev.V), ev.Label, ev.Value, ev.T)
		case stream.SetEdgeProp:
			o.setProp(oracleRuns(o.eruns, ev.E), oracleSink(o.eprops, ev.E), ev.Label, ev.Value, ev.T)
		}
	}
}

func (o *oracle) setProp(runs map[string]oracleRun, sink map[string][]tgraph.PropEntry, label string, value int64, t ival.Time) {
	if run, ok := runs[label]; ok && run.start < t {
		sink[label] = append(sink[label], tgraph.PropEntry{Interval: ival.New(run.start, t), Value: run.value})
	}
	runs[label] = oracleRun{start: t, value: value}
}

func (o *oracle) closeRuns(runs map[string]oracleRun, sink map[string][]tgraph.PropEntry, t ival.Time) {
	labels := make([]string, 0, len(runs))
	for l := range runs {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		run := runs[l]
		if run.start < t {
			sink[l] = append(sink[l], tgraph.PropEntry{Interval: ival.New(run.start, t), Value: run.value})
		}
	}
}

// graph is the pre-derivation Accumulator.Graph, verbatim but for names.
func (o *oracle) graph(horizon ival.Time) (*tgraph.Graph, error) {
	end := func(s *oracleSpan) ival.Time {
		if s.closed {
			return s.end
		}
		if horizon > 0 {
			return horizon
		}
		return ival.Infinity
	}
	b := tgraph.NewBuilder(len(o.vspans), len(o.espans))
	// Deterministic order: sorted ids.
	vids := make([]tgraph.VertexID, 0, len(o.vspans))
	for id := range o.vspans {
		vids = append(vids, id)
	}
	sort.Slice(vids, func(i, j int) bool { return vids[i] < vids[j] })
	for _, id := range vids {
		s := o.vspans[id]
		life := ival.New(s.start, end(s))
		if life.IsEmpty() {
			continue
		}
		b.AddVertex(id, life)
		o.flushProps(b.SetVertexProp, id, o.vprops[id], o.vruns[id], life)
	}
	eids := make([]tgraph.EdgeID, 0, len(o.espans))
	for id := range o.espans {
		eids = append(eids, id)
	}
	sort.Slice(eids, func(i, j int) bool { return eids[i] < eids[j] })
	for _, id := range eids {
		s := o.espans[id]
		life := ival.New(s.start, end(s))
		if life.IsEmpty() {
			continue
		}
		tails := o.etails[id]
		b.AddEdge(id, tails[0], tails[1], life)
		for label, entries := range o.eprops[id] {
			for _, p := range entries {
				if x := p.Interval.Intersect(life); !x.IsEmpty() {
					b.SetEdgeProp(id, label, x, p.Value)
				}
			}
		}
		for label, run := range o.eruns[id] {
			if x := ival.New(run.start, life.End).Intersect(life); !x.IsEmpty() {
				b.SetEdgeProp(id, label, x, run.value)
			}
		}
	}
	return b.Build()
}

func (o *oracle) flushProps(set func(tgraph.VertexID, string, ival.Interval, int64) *tgraph.Builder,
	vid tgraph.VertexID, closed map[string][]tgraph.PropEntry, runs map[string]oracleRun, life ival.Interval) {
	for label, entries := range closed {
		for _, p := range entries {
			if x := p.Interval.Intersect(life); !x.IsEmpty() {
				set(vid, label, x, p.Value)
			}
		}
	}
	for label, run := range runs {
		if x := ival.New(run.start, life.End).Intersect(life); !x.IsEmpty() {
			set(vid, label, x, run.value)
		}
	}
}
