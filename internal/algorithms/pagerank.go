package algorithms

import (
	"math"
	"sort"

	"graphite/internal/codec"
	"graphite/internal/core"
	ival "graphite/internal/interval"
	"graphite/internal/tgraph"
)

// PageRank is the time-independent PR of Sec. V with the paper's fixed
// superstep budget (10 rank updates). Each time-point evolves exactly like
// PageRank on that snapshot: messages carry rank/outdegree and are valid
// only while the carrying edge is alive; out-degree is evaluated piecewise
// over the sender's degree partition so every message interval has a
// constant degree.
//
// N is the total vertex count of the temporal graph (not the per-snapshot
// count) and rank mass from vertices with zero out-degree at a time-point is
// not redistributed — the plain Pregel formulation, mirrored by the oracle.
type PageRank struct {
	Iterations int     // rank updates; the paper uses 10
	Damping    float64 // typically 0.85

	degrees degreeTable // per vertex: out-degree per interval

	// shares[k] caches the boxed rank share sent over degree-table slot k,
	// so a vertex boxes rank/degree once per superstep and degree piece
	// rather than once per target. Only the worker executing a vertex
	// touches that vertex's slots.
	shares []rankShare
}

// rankShare is one cached rank/degree message payload, valid while the
// sender's rank has the bits it was computed from.
type rankShare struct {
	rank  uint64 // math.Float64bits of the rank
	share any    // nil until first computed
}

// NewPageRank precomputes the per-vertex temporal out-degree partition.
func NewPageRank(g *tgraph.Graph, iterations int, damping float64) *PageRank {
	a := &PageRank{Iterations: iterations, Damping: damping}
	if a.Iterations <= 0 {
		a.Iterations = 10
	}
	if a.Damping <= 0 {
		a.Damping = 0.85
	}
	a.degrees = newDegreeTable(g)
	a.shares = make([]rankShare, len(a.degrees.parts))
	return a
}

// Init seeds the uniform rank.
func (a *PageRank) Init(v *core.VertexCtx) {
	v.SetState(v.Lifespan(), 1.0/float64(v.NumVertices()))
}

// Compute sums the incoming rank mass for the active interval.
func (a *PageRank) Compute(v *core.VertexCtx, t ival.Interval, state any, msgs []any) {
	n := float64(v.NumVertices())
	if v.Superstep() == 1 {
		// Re-claim the uniform rank so the initial scatter fires.
		v.SetState(t, 1.0/n)
		return
	}
	var sum float64
	for _, m := range msgs {
		sum += m.(float64)
	}
	v.SetState(t, (1-a.Damping)/n+a.Damping*sum)
}

// Scatter divides the rank by the out-degree, piecewise over the degree
// partition so each message interval has a constant divisor. The degree
// pieces tile the lifespan in time order, so a binary search finds the
// first one t overlaps and the walk stops at the first past t. After the
// last rank update nothing is sent.
func (a *PageRank) Scatter(v *core.VertexCtx, e *tgraph.Edge, t ival.Interval, state any) []core.OutMsg {
	if v.Superstep() > a.Iterations {
		return nil
	}
	rank := state.(float64)
	bits := math.Float64bits(rank)
	off, degs := int(a.degrees.off[v.Index()]), a.degrees.of(v.Index())
	k := sort.Search(len(degs), func(k int) bool { return degs[k].Interval.End > t.Start })
	for ; k < len(degs) && degs[k].Interval.Start < t.End; k++ {
		dp := degs[k]
		if dp.Value == 0 {
			continue
		}
		sh := &a.shares[off+k]
		if sh.share == nil || sh.rank != bits {
			*sh = rankShare{rank: bits, share: rank / float64(dp.Value)}
		}
		v.Emit(dp.Interval.Intersect(t), sh.share)
	}
	return nil
}

// CombineWarp sums rank contributions in a group.
func (a *PageRank) CombineWarp(x, y any) any { return x.(float64) + y.(float64) }

// Options returns the run options PageRank needs: all vertices active for a
// fixed number of supersteps.
func (a *PageRank) Options() core.Options {
	return core.Options{
		ActivateAll:     true,
		MaxSupersteps:   a.Iterations + 1,
		PayloadCodec:    codec.Float64{},
		ReceiverCombine: true,
	}
}

// RunPageRank executes time-independent PageRank.
func RunPageRank(g *tgraph.Graph, iterations int, workers int) (*core.Result, error) {
	a := NewPageRank(g, iterations, 0.85)
	opts := a.Options()
	opts.NumWorkers = workers
	return core.Run(g, a, opts)
}

// Ranks decodes a vertex's per-interval PageRank.
func Ranks(r *core.Result, id tgraph.VertexID) []struct {
	Interval ival.Interval
	Rank     float64
} {
	st := r.StateByID(id)
	if st == nil {
		return nil
	}
	var out []struct {
		Interval ival.Interval
		Rank     float64
	}
	for _, p := range st.Parts() {
		if f, ok := p.Value.(float64); ok {
			out = append(out, struct {
				Interval ival.Interval
				Rank     float64
			}{p.Interval, f})
		}
	}
	return out
}
