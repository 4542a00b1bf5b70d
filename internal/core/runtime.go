package core

import (
	"slices"
	"sync"
	"sync/atomic"

	"graphite/internal/engine"
	ival "graphite/internal/interval"
	"graphite/internal/tgraph"
	"graphite/internal/warp"
)

// runtime adapts an ICM Program to the BSP engine: it owns the partitioned
// vertex states, runs the pre-compute time-warp over incoming messages, and
// the pre-scatter alignment of updated states with out-edge property
// partitions.
//
// Every per-run table is one flat array sized up front from counts the graph
// already holds, so setting up a run costs O(1) heap allocations however
// large the graph is (DESIGN §12 "Run setup").
type runtime struct {
	g       *tgraph.Graph
	prog    Program
	opts    Options
	combine warp.CombineFunc // nil when absent or disabled
	states  []*PartitionedState

	// Edge i's lifespan, partitioned at its property boundaries, is
	// pieces[pieceOff[i]:pieceOff[i+1]]; match[k] is the interval that
	// triggers scatter on pieces[k] (match aliases pieces unless
	// ScatterSlackLabel translates it).
	pieceOff []int32
	pieces   []ival.Interval
	match    []ival.Interval

	// Vertex v's scatter targets are targets[targetOff[v]:targetOff[v+1]].
	targetOff []int32
	targets   []target

	// stateSlab backs every vertex's PartitionedState and partSlab its
	// initial one-partition array, slot v.
	stateSlab []PartitionedState
	partSlab  []warp.IntervalValue

	threshold float64

	// Per-worker reusable scratch; sized lazily at the first Init or Run
	// call, when the engine's effective worker count is known.
	wss    []workspace
	wsOnce sync.Once

	warpCalls       atomic.Int64
	warpSuppressed  atomic.Int64
	stateUpdates    atomic.Int64
	activeIntervals atomic.Int64

	// Trace-only counters (maintained when traced is set): warp group fan-in
	// and the unit-message share the suppression heuristic keys off.
	traced       bool
	mergedGroups atomic.Int64
	msgsIn       atomic.Int64
	unitMsgsIn   atomic.Int64

	errMu sync.Mutex
	err   error
}

// target is one edge a vertex's scatter traverses, with the dense index of
// the endpoint messages go to.
type target struct {
	edge int32
	dst  int32
}

func newRuntime(g *tgraph.Graph, prog Program, opts Options) *runtime {
	n := g.NumVertices()
	rt := &runtime{
		g:         g,
		prog:      prog,
		opts:      opts,
		states:    make([]*PartitionedState, n),
		stateSlab: make([]PartitionedState, n),
		partSlab:  make([]warp.IntervalValue, n),
		threshold: opts.SuppressionThreshold,
	}
	if rt.threshold <= 0 {
		rt.threshold = DefaultSuppressionThreshold
	}
	if wc, ok := prog.(WarpCombiner); ok && !opts.DisableWarpCombiner {
		rt.combine = wc.CombineWarp
	}
	rt.buildPieces()
	rt.buildTargets()
	return rt
}

// buildPieces partitions every edge's lifespan at the boundaries of its
// property values, so that each scatter call sees time-invariant properties.
// An edge with k property entries has at most 2k+2 bounds; a counting pass
// sizes one scratch slab by that. The next pass packs each edge's sorted,
// distinct bounds back to back into it and so learns the exact piece count
// (an edge with m bounds has m-1 pieces; labels often share bounds, so this
// is well below the 2k+1 bound). The last turns consecutive bounds into the
// exactly sized piece slab the run keeps.
func (rt *runtime) buildPieces() {
	g, labels := rt.g, rt.opts.PropLabels
	total := 0
	for i := 0; i < g.NumEdges(); i++ {
		k := 0
		forEachPropEntries(g.Edge(i), labels, func(es []tgraph.PropEntry) { k += len(es) })
		total += 2*k + 2
	}
	bounds := make([]ival.Time, 0, total)
	rt.pieceOff = make([]int32, g.NumEdges()+1)
	for i := 0; i < g.NumEdges(); i++ {
		e := g.Edge(i)
		from := len(bounds)
		bounds = append(bounds, e.Lifespan.Start, e.Lifespan.End)
		forEachPropEntries(e, labels, func(es []tgraph.PropEntry) {
			for _, p := range es {
				if x := p.Interval.Intersect(e.Lifespan); !x.IsEmpty() {
					bounds = append(bounds, x.Start, x.End)
				}
			}
		})
		slices.Sort(bounds[from:])
		bounds = bounds[:from+len(slices.Compact(bounds[from:]))]
		rt.pieceOff[i+1] = rt.pieceOff[i] + int32(len(bounds)-from-1)
	}
	rt.pieces = make([]ival.Interval, rt.pieceOff[g.NumEdges()])
	for i := 0; i < g.NumEdges(); i++ {
		off, n := int(rt.pieceOff[i]), int(rt.pieceOff[i+1]-rt.pieceOff[i])
		for k := 0; k < n; k++ {
			rt.pieces[off+k] = ival.New(bounds[k], bounds[k+1])
		}
		bounds = bounds[n+1:]
	}
	rt.match = rt.pieces
	if label := rt.opts.ScatterSlackLabel; label != "" {
		rt.match = make([]ival.Interval, len(rt.pieces))
		for i := 0; i < g.NumEdges(); i++ {
			e := g.Edge(i)
			for k := rt.pieceOff[i]; k < rt.pieceOff[i+1]; k++ {
				slack, _ := e.Props.ValueAt(label, rt.pieces[k].Start)
				rt.match[k] = rt.pieces[k].Translate(slack)
			}
		}
	}
}

// forEachPropEntries calls fn with each of e's property entry lists whose
// boundaries partition scatter: those of labels, or of every label when
// labels is empty.
func forEachPropEntries(e *tgraph.Edge, labels []string, fn func([]tgraph.PropEntry)) {
	if len(labels) == 0 {
		for _, es := range e.Props.All() {
			fn(es)
		}
		return
	}
	for _, l := range labels {
		fn(e.Props.Entries(l))
	}
}

// buildTargets lays out the edges each vertex's scatter traverses as a CSR:
// out-edges to their destinations unless Reverse, in-edges to their sources
// when Reverse, both when Undirected.
func (rt *runtime) buildTargets() {
	g := rt.g
	fwd := !rt.opts.Reverse || rt.opts.Undirected
	rev := rt.opts.Reverse || rt.opts.Undirected
	total := 0 // every edge is in exactly one out-list and one in-list
	if fwd {
		total += g.NumEdges()
	}
	if rev {
		total += g.NumEdges()
	}
	rt.targetOff = make([]int32, g.NumVertices()+1)
	rt.targets = make([]target, 0, total)
	for v := 0; v < g.NumVertices(); v++ {
		if fwd {
			for _, ei := range g.OutEdges(v) {
				rt.targets = append(rt.targets, target{edge: ei, dst: int32(g.DstIndex(int(ei)))})
			}
		}
		if rev {
			for _, ei := range g.InEdges(v) {
				rt.targets = append(rt.targets, target{edge: ei, dst: int32(g.SrcIndex(int(ei)))})
			}
		}
		rt.targetOff[v+1] = int32(len(rt.targets))
	}
}

// targetsOf returns vertex v's scatter targets.
func (rt *runtime) targetsOf(v int) []target {
	return rt.targets[rt.targetOff[v]:rt.targetOff[v+1]]
}

// runtimeSnapshot is the ICM-level state a rollback must restore: cloned
// partitioned vertex states plus the Stats counters, so a replayed superstep
// neither loses nor double-counts events.
type runtimeSnapshot struct {
	states          []*PartitionedState
	warpCalls       int64
	warpSuppressed  int64
	stateUpdates    int64
	activeIntervals int64
	mergedGroups    int64
	msgsIn          int64
	unitMsgsIn      int64
}

// Snapshot implements engine.Snapshotter.
func (rt *runtime) Snapshot() any {
	s := &runtimeSnapshot{
		states:          make([]*PartitionedState, len(rt.states)),
		warpCalls:       rt.warpCalls.Load(),
		warpSuppressed:  rt.warpSuppressed.Load(),
		stateUpdates:    rt.stateUpdates.Load(),
		activeIntervals: rt.activeIntervals.Load(),
		mergedGroups:    rt.mergedGroups.Load(),
		msgsIn:          rt.msgsIn.Load(),
		unitMsgsIn:      rt.unitMsgsIn.Load(),
	}
	for i, st := range rt.states {
		if st != nil {
			s.states[i] = st.Clone()
		}
	}
	return s
}

// Restore implements engine.Snapshotter. It clones again so the same
// snapshot survives being restored more than once.
func (rt *runtime) Restore(snapshot any) {
	s := snapshot.(*runtimeSnapshot)
	for i, st := range s.states {
		if st != nil {
			rt.states[i] = st.Clone()
		} else {
			rt.states[i] = nil
		}
	}
	rt.warpCalls.Store(s.warpCalls)
	rt.warpSuppressed.Store(s.warpSuppressed)
	rt.stateUpdates.Store(s.stateUpdates)
	rt.activeIntervals.Store(s.activeIntervals)
	rt.mergedGroups.Store(s.mergedGroups)
	rt.msgsIn.Store(s.msgsIn)
	rt.unitMsgsIn.Store(s.unitMsgsIn)
}

func (rt *runtime) fail(err error) {
	rt.errMu.Lock()
	if rt.err == nil {
		rt.err = err
	}
	rt.errMu.Unlock()
}

func (rt *runtime) statsSnapshot() Stats {
	s := Stats{
		WarpCalls:       rt.warpCalls.Load(),
		WarpSuppressed:  rt.warpSuppressed.Load(),
		StateUpdates:    rt.stateUpdates.Load(),
		ActiveIntervals: rt.activeIntervals.Load(),
	}
	for _, st := range rt.states {
		if st != nil && st.NumParts() > s.MaxPartitions {
			s.MaxPartitions = st.NumParts()
		}
	}
	return s
}

// Init implements engine.Program: allocate the state and run the user init,
// then overlay the incremental seed when one exists for this vertex.
func (rt *runtime) Init(ctx *engine.Context) {
	i := ctx.Vertex()
	v := rt.g.VertexAt(i)
	// Slot i is capped at one element, so a Set that splits the state grows
	// off the slab instead of into a neighbour's slot.
	st := &rt.stateSlab[i]
	*st = PartitionedState{lifespan: v.Lifespan, parts: rt.partSlab[i : i+1 : i+1]}
	st.parts[0] = warp.IntervalValue{Interval: v.Lifespan}
	rt.states[i] = st
	ws := rt.workspace(ctx)
	vc := &ws.vc
	*vc = VertexCtx{rt: rt, eng: ctx, idx: i, v: v, inInit: true, updated: vc.updated[:0]}
	rt.prog.Init(vc)
	if seed := rt.seedFor(i); seed != nil {
		if err := overlaySeed(rt.states[i], seed); err != nil {
			rt.fail(err)
		}
	}
}

func (rt *runtime) seedFor(i int) *PartitionedState {
	if i < len(rt.opts.SeedStates) {
		return rt.opts.SeedStates[i]
	}
	return nil
}

// overlaySeed writes a captured terminal state over a freshly initialized
// one. Partitions are clipped to the (possibly different) lifespan, and the
// final partition's value is extended across any lifespan growth: seedable
// programs fold messages of the form [t, lifespan end), so the value in
// force at the old cut is exactly what a full run over the longer lifespan
// would have carried forward until a later message improved it.
func overlaySeed(st *PartitionedState, seed *PartitionedState) error {
	life := st.Lifespan()
	var last warp.IntervalValue
	have := false
	for _, p := range seed.Parts() {
		x := p.Interval.Intersect(life)
		if x.IsEmpty() {
			continue
		}
		if err := st.Set(x, p.Value); err != nil {
			return err
		}
		last, have = warp.IntervalValue{Interval: x, Value: p.Value}, true
	}
	if have && last.Interval.End < life.End {
		if err := st.Set(ival.New(last.Interval.End, life.End), last.Value); err != nil {
			return err
		}
	}
	return nil
}

// Run implements engine.Program: one superstep for one active vertex. The
// worker's workspace supplies every buffer the superstep needs, so the
// steady-state align → compute → scatter path performs no allocation.
func (rt *runtime) Run(ctx *engine.Context, msgs []engine.Message) {
	i := ctx.Vertex()
	st := rt.states[i]
	ws := rt.workspace(ctx)
	vc := &ws.vc
	*vc = VertexCtx{rt: rt, eng: ctx, idx: i, v: rt.g.VertexAt(i), updated: vc.updated[:0]}

	if ctx.Superstep() == 1 && rt.seedFor(i) != nil {
		// Seeded vertices replace the cold superstep-1 compute with a full
		// re-scatter of their captured state: every terminal partition of a
		// seedable program started life as a state update, so scattering
		// each partition over its own interval regenerates exactly the
		// frontier messages the prior run sent — messages into already-
		// converged regions fold to no-ops, messages past the old cut
		// propagate the extension.
		targets := rt.targetsOf(i)
		if len(targets) == 0 {
			return
		}
		rt.activeIntervals.Add(int64(st.NumParts()))
		for _, p := range st.Parts() {
			rt.scatterPart(vc, ctx, targets, p.Interval, p.Value)
		}
		return
	}

	tuples := rt.align(ws, st, msgs, ctx.Superstep())
	if len(tuples) == 0 {
		return
	}
	rt.activeIntervals.Add(int64(len(tuples)))
	if rt.traced {
		var merged int64
		for _, tu := range tuples {
			if len(tu.Msgs) >= 2 {
				merged++
			}
		}
		if merged != 0 {
			rt.mergedGroups.Add(merged)
		}
	}

	// Compute step: one user call per warp tuple.
	for _, tu := range tuples {
		vc.allowed = tu.Interval
		vc.inCompute = true
		rt.prog.Compute(vc, tu.Interval, tu.State, tu.Msgs)
		vc.inCompute = false
		ctx.AddComputeCalls(1)
		if rt.opts.CheckInvariants {
			if err := st.Invariant(); err != nil {
				rt.fail(err)
			}
		}
	}
	if len(vc.updated) == 0 {
		return
	}

	// Scatter step: align updated state partitions with the traversed
	// edges' property partitions; one scatter call per non-empty
	// intersection.
	targets := rt.targetsOf(i)
	if len(targets) == 0 {
		return
	}
	upds := coalesceIntervals(vc.updated)
	for _, p := range st.Parts() {
		for _, u := range upds {
			if x := u.Intersect(p.Interval); !x.IsEmpty() {
				rt.scatterPart(vc, ctx, targets, x, p.Value)
			}
		}
	}
}

// align produces the compute tuples for one vertex and superstep: the
// pre-compute time-warp of Sec. IV-B, its suppressed and disabled fallbacks,
// and the whole-lifespan activation paths. The result lives in the worker's
// workspace and is valid only until the worker's next vertex.
func (rt *runtime) align(ws *workspace, st *PartitionedState, msgs []engine.Message, superstep int) []warp.Tuple {
	tuples := ws.tuples[:0]
	if superstep == 1 || (rt.opts.ActivateAll && len(msgs) == 0) {
		// Superstep 1 runs compute on every vertex for its entire lifespan
		// with no messages (Sec. IV-A); forced-active vertices without
		// messages behave the same way in later supersteps.
		for _, p := range st.Parts() {
			tuples = append(tuples, warp.Tuple{Interval: p.Interval, State: p.Value})
		}
		ws.tuples = tuples
		return tuples
	}
	// Clip message intervals to the vertex lifespan up front: warp would do
	// it anyway, and the suppression heuristic must see the effective
	// intervals — a [t, ∞) path message hitting a vertex that lives for one
	// time-point is a unit message in every sense.
	life := st.Lifespan()
	inner := ws.inner[:0]
	for _, m := range msgs {
		if x := m.When.Intersect(life); !x.IsEmpty() {
			inner = append(inner, warp.IntervalValue{Interval: x, Value: m.Value})
		}
	}
	ws.inner = inner
	if rt.traced && len(inner) > 0 {
		var unit int64
		for _, iv := range inner {
			if iv.Interval.IsUnit() {
				unit++
			}
		}
		rt.msgsIn.Add(int64(len(inner)))
		rt.unitMsgsIn.Add(unit)
	}
	switch {
	case rt.opts.DisableWarp:
		tuples = rt.pointGroups(ws, tuples, st, inner)
	case !rt.opts.DisableSuppression && warp.UnitFraction(inner) > rt.threshold:
		rt.warpSuppressed.Add(1)
		tuples = rt.pointGroups(ws, tuples, st, inner)
	case rt.combine != nil:
		rt.warpCalls.Add(1)
		tuples = ws.scratch.WarpCombined(tuples, st.Parts(), inner, rt.combine)
	default:
		rt.warpCalls.Add(1)
		tuples = ws.scratch.Warp(tuples, st.Parts(), inner)
	}
	if rt.opts.ActivateAll {
		// Forced-active vertices compute over their whole lifespan: append
		// empty-group tuples for the sub-intervals no message covered.
		// (Superstep 1 and the no-message case returned above.)
		tuples = fillGaps(tuples, st.Parts())
	}
	ws.tuples = tuples
	return tuples
}

// pointGroups is the suppressed execution path, with the inline combiner
// applied when available; it appends into dst with the workspace scratch.
func (rt *runtime) pointGroups(ws *workspace, dst []warp.Tuple, st *PartitionedState, inner []warp.IntervalValue) []warp.Tuple {
	if rt.combine != nil {
		return ws.scratch.PointGroupsCombined(dst, st.Parts(), inner, rt.combine)
	}
	return ws.scratch.PointGroups(dst, st.Parts(), inner)
}

// coalesceIntervals sorts and merges overlapping or adjacent intervals in
// place; update lists are tiny, so an insertion sort suffices.
func coalesceIntervals(ivs []ival.Interval) []ival.Interval {
	for i := 1; i < len(ivs); i++ {
		for j := i; j > 0 && ivs[j].Start < ivs[j-1].Start; j-- {
			ivs[j], ivs[j-1] = ivs[j-1], ivs[j]
		}
	}
	out := ivs[:0]
	for _, iv := range ivs {
		if n := len(out); n > 0 && out[n-1].End >= iv.Start {
			if iv.End > out[n-1].End {
				out[n-1].End = iv.End
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// scatterPart invokes Scatter for one updated 〈interval, state〉 against
// every overlapping edge property piece. Without ScatterSlackLabel an edge's
// pieces tile its lifespan in time order, so an edge whose first piece
// starts after upd or whose last piece ends before it is skipped without
// probing its pieces; with slack the translated pieces need not be ordered,
// and every piece is probed.
func (rt *runtime) scatterPart(vc *VertexCtx, ctx *engine.Context, targets []target, upd ival.Interval, state any) {
	tiled := rt.opts.ScatterSlackLabel == ""
	for _, tg := range targets {
		lo, hi := rt.pieceOff[tg.edge], rt.pieceOff[tg.edge+1]
		if tiled && (lo == hi || rt.pieces[lo].Start >= upd.End || rt.pieces[hi-1].End <= upd.Start) {
			continue
		}
		e := rt.g.Edge(int(tg.edge))
		for k := lo; k < hi; k++ {
			x := rt.match[k].Intersect(upd)
			if x.IsEmpty() {
				continue
			}
			vc.piece = rt.pieces[k]
			vc.scatterX = x
			vc.scatterTo = int(tg.dst)
			vc.inScatter = true
			ctx.AddScatterCalls(1)
			for _, om := range rt.prog.Scatter(vc, e, x, state) {
				when := om.When
				if when == (ival.Interval{}) {
					when = x
				}
				if when.IsEmpty() {
					continue
				}
				ctx.Send(int(tg.dst), when, om.Value)
			}
			vc.inScatter = false
		}
	}
}
