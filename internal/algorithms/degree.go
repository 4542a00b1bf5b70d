package algorithms

import (
	"slices"

	ival "graphite/internal/interval"
	"graphite/internal/tgraph"
)

// degreeTable holds every vertex's temporal out-degree partition in one
// slab: vertex v's lifespan, split at its out-edges' lifespan boundaries and
// annotated with the out-degree on each piece, is parts[off[v]:off[v+1]].
type degreeTable struct {
	off   []int32
	parts []IntervalValue
}

// newDegreeTable builds the out-degree partitions of every vertex. Per
// vertex it sorts the clipped out-edge starts and ends (the +1 and −1
// events) and sweeps them once, so the degree of each piece is a running
// count rather than a rescan of the out-edges. A vertex with k live
// out-edges has at most 2k+1 pieces, which sizes a scratch slab; pieces
// usually share bounds, so the table keeps an exact copy.
func newDegreeTable(g *tgraph.Graph) degreeTable {
	n := g.NumVertices()
	widest := 0
	for v := 0; v < n; v++ {
		widest = max(widest, len(g.OutEdges(v)))
	}
	t := degreeTable{
		off:   make([]int32, n+1),
		parts: make([]IntervalValue, 0, 2*g.NumEdges()+n),
	}
	events := make([]ival.Time, 2*widest)
	for v := 0; v < n; v++ {
		life := g.VertexAt(v).Lifespan
		k := 0
		for _, ei := range g.OutEdges(v) {
			if x := g.Edge(int(ei)).Lifespan.Intersect(life); !x.IsEmpty() {
				events[k], events[widest+k] = x.Start, x.End
				k++
			}
		}
		starts, ends := events[:k], events[widest:widest+k]
		slices.Sort(starts)
		slices.Sort(ends)
		deg := int64(0)
		for cur := life.Start; cur < life.End; {
			for len(starts) > 0 && starts[0] <= cur {
				deg++
				starts = starts[1:]
			}
			for len(ends) > 0 && ends[0] <= cur {
				deg--
				ends = ends[1:]
			}
			next := life.End
			if len(starts) > 0 {
				next = min(next, starts[0])
			}
			if len(ends) > 0 {
				next = min(next, ends[0])
			}
			t.parts = append(t.parts, IntervalValue{Interval: ival.New(cur, next), Value: deg})
			cur = next
		}
		t.off[v+1] = int32(len(t.parts))
	}
	t.parts = slices.Clone(t.parts)
	return t
}

// of returns vertex v's out-degree partition in time order.
func (t degreeTable) of(v int) []IntervalValue { return t.parts[t.off[v]:t.off[v+1]] }
