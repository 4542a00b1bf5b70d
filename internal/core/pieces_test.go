package core

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"graphite/internal/gen"
	ival "graphite/internal/interval"
	"graphite/internal/tgraph"
)

// edgePartition is the per-edge reference for the runtime's flat piece slab:
// it splits an edge's lifespan at the boundaries of its property values so
// that each scatter call sees time-invariant properties, allocating its own
// bounds and parts for every edge.
func edgePartition(e *tgraph.Edge, labels []string) []ival.Interval {
	bounds := []ival.Time{e.Lifespan.Start, e.Lifespan.End}
	add := func(entries []tgraph.PropEntry) {
		for _, p := range entries {
			x := p.Interval.Intersect(e.Lifespan)
			if !x.IsEmpty() {
				bounds = append(bounds, x.Start, x.End)
			}
		}
	}
	if len(labels) == 0 {
		for _, entries := range e.Props.All() {
			add(entries)
		}
	} else {
		for _, l := range labels {
			add(e.Props.Entries(l))
		}
	}
	sort.Slice(bounds, func(a, b int) bool { return bounds[a] < bounds[b] })
	var parts []ival.Interval
	for i := 0; i+1 < len(bounds); i++ {
		if bounds[i] == bounds[i+1] {
			continue
		}
		parts = append(parts, ival.New(bounds[i], bounds[i+1]))
	}
	return parts
}

// edgeMatchOracle is the reference scatter trigger for one edge's pieces:
// the pieces themselves, or each translated by its slack property value.
func edgeMatchOracle(e *tgraph.Edge, parts []ival.Interval, slackLabel string) []ival.Interval {
	if slackLabel == "" {
		return parts
	}
	match := make([]ival.Interval, len(parts))
	for k, piece := range parts {
		slack, _ := e.Props.ValueAt(slackLabel, piece.Start)
		match[k] = piece.Translate(slack)
	}
	return match
}

// targetsOracle is the reference per-vertex scatter target list.
func targetsOracle(g *tgraph.Graph, v int, opts Options) []target {
	var out []target
	if !opts.Reverse || opts.Undirected {
		for _, ei := range g.OutEdges(v) {
			out = append(out, target{edge: ei, dst: int32(g.DstIndex(int(ei)))})
		}
	}
	if opts.Reverse || opts.Undirected {
		for _, ei := range g.InEdges(v) {
			out = append(out, target{edge: ei, dst: int32(g.SrcIndex(int(ei)))})
		}
	}
	return out
}

// edgePieces returns edge i's property pieces from the flat slab.
func (rt *runtime) edgePieces(i int) []ival.Interval {
	return rt.pieces[rt.pieceOff[i]:rt.pieceOff[i+1]]
}

// edgeMatch returns the scatter trigger intervals of edge i's pieces.
func (rt *runtime) edgeMatch(i int) []ival.Interval {
	return rt.match[rt.pieceOff[i]:rt.pieceOff[i+1]]
}

// pieceGraphs is the differential corpus: three generator profiles with
// different lifespan and property-segment shapes, plus the transit fixture.
func pieceGraphs(t testing.TB) map[string]*tgraph.Graph {
	t.Helper()
	graphs := map[string]*tgraph.Graph{"transit": tgraph.TransitExample()}
	for _, p := range []gen.Profile{gen.MAGLike(0.2), gen.RedditLike(0.2), gen.SkewedLike(0.2)} {
		g, err := gen.Generate(p, 7)
		if err != nil {
			t.Fatalf("generate %s: %v", p.Name, err)
		}
		graphs[p.Name] = g
	}
	return graphs
}

// TestFlatPiecesMatchPerEdgeOracle checks the runtime's flat piece, match
// and target tables edge by edge and vertex by vertex, in order, against the
// per-entity reference, across graphs, label filters, slack and traversal
// direction.
func TestFlatPiecesMatchPerEdgeOracle(t *testing.T) {
	labelSets := map[string][]string{
		"all":    nil,
		"travel": {tgraph.PropTravelTime, tgraph.PropTravelCost},
		"absent": {"no-such-label"},
	}
	traversals := map[string]Options{
		"forward":    {},
		"reverse":    {Reverse: true},
		"undirected": {Undirected: true},
	}
	for gname, g := range pieceGraphs(t) {
		for lname, labels := range labelSets {
			for _, slack := range []string{"", tgraph.PropTravelTime} {
				for tname, base := range traversals {
					name := fmt.Sprintf("%s/%s/slack=%q/%s", gname, lname, slack, tname)
					t.Run(name, func(t *testing.T) {
						opts := base
						opts.PropLabels = labels
						opts.ScatterSlackLabel = slack
						rt := newRuntime(g, &floodProgram{}, opts)
						checkFlatTables(t, g, rt, opts)
					})
				}
			}
		}
	}
}

func checkFlatTables(t *testing.T, g *tgraph.Graph, rt *runtime, opts Options) {
	t.Helper()
	if len(rt.pieceOff) != g.NumEdges()+1 || len(rt.targetOff) != g.NumVertices()+1 {
		t.Fatalf("offset tables sized %d/%d, want %d/%d",
			len(rt.pieceOff), len(rt.targetOff), g.NumEdges()+1, g.NumVertices()+1)
	}
	for i := 0; i < g.NumEdges(); i++ {
		e := g.Edge(i)
		want := edgePartition(e, opts.PropLabels)
		if got := rt.edgePieces(i); !slices.Equal(got, want) {
			t.Fatalf("edge %d pieces = %v, want %v", i, got, want)
		}
		if got, want := rt.edgeMatch(i), edgeMatchOracle(e, want, opts.ScatterSlackLabel); !slices.Equal(got, want) {
			t.Fatalf("edge %d match = %v, want %v", i, got, want)
		}
	}
	if int(rt.pieceOff[g.NumEdges()]) != len(rt.pieces) || len(rt.match) != len(rt.pieces) {
		t.Fatalf("slab lengths: %d pieces, %d match, last offset %d",
			len(rt.pieces), len(rt.match), rt.pieceOff[g.NumEdges()])
	}
	for v := 0; v < g.NumVertices(); v++ {
		if got, want := rt.targetsOf(v), targetsOracle(g, v, opts); !slices.Equal(got, want) {
			t.Fatalf("vertex %d targets = %v, want %v", v, got, want)
		}
	}
}
