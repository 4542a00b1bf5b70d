package algorithms

import (
	"slices"
	"sort"
	"testing"

	"graphite/internal/gen"
	ival "graphite/internal/interval"
	"graphite/internal/tgraph"
)

// degreePartitionOracle is the per-vertex reference for degreeTable: split
// the lifespan at the out-edges' clipped lifespan boundaries and count the
// out-edges alive at each piece's start.
func degreePartitionOracle(g *tgraph.Graph, v int) []IntervalValue {
	life := g.VertexAt(v).Lifespan
	bounds := []ival.Time{life.Start, life.End}
	for _, ei := range g.OutEdges(v) {
		x := g.Edge(int(ei)).Lifespan.Intersect(life)
		if !x.IsEmpty() {
			bounds = append(bounds, x.Start, x.End)
		}
	}
	sort.Slice(bounds, func(a, b int) bool { return bounds[a] < bounds[b] })
	var out []IntervalValue
	for i := 0; i+1 < len(bounds); i++ {
		if bounds[i] == bounds[i+1] {
			continue
		}
		piece := ival.New(bounds[i], bounds[i+1])
		out = append(out, IntervalValue{Interval: piece, Value: int64(g.OutDegreeAt(v, piece.Start))})
	}
	return out
}

// TestDegreeTableMatchesOracle checks the swept degree slab against the
// rescan-per-piece reference for every vertex of the transit fixture and
// of generated graphs with churn, mixed and long lifespans.
func TestDegreeTableMatchesOracle(t *testing.T) {
	graphs := map[string]*tgraph.Graph{"transit": tgraph.TransitExample()}
	for _, p := range []gen.Profile{gen.MAGLike(0.2), gen.RedditLike(0.2), gen.SkewedLike(0.2), gen.USRNLike(0.2)} {
		g, err := gen.Generate(p, 3)
		if err != nil {
			t.Fatal(err)
		}
		graphs[p.Name] = g
	}
	for name, g := range graphs {
		dt := newDegreeTable(g)
		for v := 0; v < g.NumVertices(); v++ {
			if got, want := dt.of(v), degreePartitionOracle(g, v); !slices.Equal(got, want) {
				t.Fatalf("%s vertex %d: degree partition %v, want %v", name, v, got, want)
			}
		}
	}
}

// BenchmarkNewPageRank measures PageRank's degree-partition precompute at
// the graph sizes the query-mix and cluster-pagerank benchmarks use.
func BenchmarkNewPageRank(b *testing.B) {
	for _, p := range []gen.Profile{gen.MAGLike(0.5), gen.RedditLike(0.5), gen.SkewedLike(0.5)} {
		g, err := gen.Generate(p, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(p.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				NewPageRank(g, 10, 0.85)
			}
		})
	}
}
