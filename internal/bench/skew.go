package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"sort"
	"strings"
	"time"

	"graphite/internal/algorithms"
	"graphite/internal/core"
	"graphite/internal/engine"
	"graphite/internal/gen"
	"graphite/internal/obs"
	"graphite/internal/stats"
	"graphite/internal/tgraph"
)

// --- skew: partition ablation on a skewed power-law temporal graph ---
//
// The experiment isolates compute skew, the straggler problem balanced
// placement exists for. The generator's power law concentrates
// edge work on low-index hub vertices, and the static baseline partitions
// by contiguous vertex ranges — the locality-preserving assignment a real
// ingest produces, and the worst case for skew: one worker owns every hub
// and every superstep barrier waits on it. Two modes measure the remedy:
//
//	static    range partition (the skewed baseline)
//	balanced  PartitionBalanced over Σ(out-degree·lifespan) weights
//
// Both modes must produce bit-identical vertex states for the min-fold
// algorithms; the report fails loudly if they diverge.

// SkewMode names one vertex placement of the skew experiment.
type SkewMode string

// Skew experiment modes.
const (
	SkewStatic   SkewMode = "static"
	SkewBalanced SkewMode = "balanced"
)

// SkewModes lists the modes in report order.
var SkewModes = []SkewMode{SkewStatic, SkewBalanced}

// SkewAlgos are the algorithms of the skew ablation: PageRank exercises the
// all-active dense load, SSSP and EAT the shifting sparse frontier.
var SkewAlgos = []Algo{PR, SSSP, EAT}

// skewRuns is how many measured runs back each cell; the makespan reported
// is their median, the imbalance statistics pool every superstep of every
// run.
const skewRuns = 3

// rangePartition assigns contiguous vertex-index blocks to workers — the
// skewed static baseline the scheduler is measured against.
func rangePartition(vertices int) func(vertex, numWorkers int) int {
	return func(v, n int) int {
		if n <= 0 || v < 0 || v >= vertices {
			return 0
		}
		per := (vertices + n - 1) / n
		return v / per
	}
}

// SkewRow is one (algorithm, mode) cell of the skew report.
type SkewRow struct {
	Algo       Algo     `json:"algo"`
	Mode       SkewMode `json:"mode"`
	Supersteps int      `json:"supersteps"`
	// MakespanMS is the median run wall time.
	MakespanMS float64 `json:"makespan_ms"`
	// SkewMax and SkewMean summarize per-superstep compute imbalance
	// (max worker compute time / mean worker compute time; 1.0 is perfectly
	// balanced, Workers is one straggler doing everything): the worst
	// superstep and the mean across all supersteps of all measured runs.
	SkewMax  float64 `json:"skew_max"`
	SkewMean float64 `json:"skew_mean"`
	// WorkSkewMax and WorkSkew are the same ratios over executed work units
	// (messages emitted per worker per superstep) instead of nanoseconds:
	// deterministic under a static schedule and immune to CPU
	// oversubscription noise. WorkSkew is work-weighted across supersteps:
	// Σ max / (Σ total / workers), i.e. the modeled parallel slowdown of
	// the compute barriers.
	WorkSkewMax  float64 `json:"work_skew_max"`
	WorkSkew     float64 `json:"work_skew"`
	Messages     int64   `json:"messages"`
	MessageBytes int64   `json:"message_bytes"`
}

// SkewReport is the full skew experiment: the generated graph's shape plus
// one row per (algorithm, mode).
type SkewReport struct {
	Graph    string    `json:"graph"`
	Vertices int       `json:"vertices"`
	Edges    int       `json:"edges"`
	Workers  int       `json:"workers"`
	Runs     int       `json:"runs_per_cell"`
	Rows     []SkewRow `json:"rows"`
}

// Skew runs the partition ablation and verifies the determinism contract
// across modes before returning the report.
func Skew(cfg Config) (*SkewReport, error) {
	p := gen.SkewedLike(cfg.Scale)
	g, err := gen.Generate(p, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("bench: generate %s: %w", p.Name, err)
	}
	balanced := engine.PartitionBalanced(g.WorkWeights())

	rep := &SkewReport{
		Graph:    p.Name,
		Vertices: g.NumVertices(),
		Edges:    g.NumEdges(),
		Workers:  cfg.Workers,
		Runs:     skewRuns,
	}
	for _, al := range SkewAlgos {
		results := map[SkewMode]*core.Result{}
		for _, mode := range SkewModes {
			row, r, err := skewCell(cfg, al, g, mode, balanced)
			if err != nil {
				return nil, fmt.Errorf("bench: skew %s/%s: %w", al, mode, err)
			}
			results[mode] = r
			rep.Rows = append(rep.Rows, row)
		}
		if err := skewIdentity(g, al, results); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// skewIdentity enforces the determinism contract: the balanced partition
// must agree bit for bit with the static one for the min-fold algorithms
// (PageRank folds float rank mass in message arrival order, and
// repartitioning legitimately reorders arrival across workers, so it is
// excluded).
func skewIdentity(g *tgraph.Graph, al Algo, res map[SkewMode]*core.Result) error {
	if al == PR {
		return nil
	}
	a, b := res[SkewStatic], res[SkewBalanced]
	for v := 0; v < g.NumVertices(); v++ {
		if !reflect.DeepEqual(a.State(v).Parts(), b.State(v).Parts()) {
			return fmt.Errorf("bench: skew %s: vertex %d diverges between %s and %s",
				al, v, SkewStatic, SkewBalanced)
		}
	}
	return nil
}

// skewCell measures one (algorithm, mode) cell: a warm-up run to let pools
// and grow-only buffers reach steady state, then skewRuns traced runs.
func skewCell(cfg Config, al Algo, g *tgraph.Graph, mode SkewMode, balanced func(vertex, numWorkers int) int) (SkewRow, *core.Result, error) {
	run := func(tr obs.Tracer) (*core.Result, error) {
		prog, opts, err := algorithms.New(g, strings.ToLower(string(al)), algorithms.Params{
			Source:     g.VertexAt(0).ID,
			Target:     g.VertexAt(g.NumVertices() - 1).ID,
			Iterations: cfg.PRIterations,
		})
		if err != nil {
			return nil, err
		}
		opts.NumWorkers = cfg.Workers
		opts.Tracer = tr
		switch mode {
		case SkewStatic:
			opts.Partitioner = rangePartition(g.NumVertices())
		case SkewBalanced:
			opts.Partitioner = balanced
		}
		return core.Run(g, prog, opts)
	}

	if _, err := run(nil); err != nil { // warm-up
		return SkewRow{}, nil, err
	}
	var (
		last       *core.Result
		makespans  []time.Duration
		ratios     []float64
		workRatios []float64
		maxWork    int64 // Σ per-superstep max worker work, all runs
		totalWork  int64 // Σ per-superstep total work, all runs
		workers    int
	)
	for i := 0; i < skewRuns; i++ {
		rec := &obs.Recorder{}
		r, err := run(rec)
		if err != nil {
			return SkewRow{}, nil, err
		}
		last = r
		makespans = append(makespans, r.Metrics.Makespan)
		evs := rec.Events()
		for _, e := range evs {
			wp, ok := e.(obs.WorkerPhase)
			if !ok || wp.Phase != "compute" {
				continue
			}
			if wp.Worker >= workers {
				workers = wp.Worker + 1
			}
		}
		ratios = append(ratios, skewPerStep(evs, func(wp obs.WorkerPhase) int64 { return wp.NS })...)
		work := skewPerStep(evs, func(wp obs.WorkerPhase) int64 { return wp.SentMsgs })
		workRatios = append(workRatios, work...)
		mw, tw := workTotals(evs)
		maxWork += mw
		totalWork += tw
	}
	sort.Slice(makespans, func(a, b int) bool { return makespans[a] < makespans[b] })

	row := SkewRow{
		Algo:         al,
		Mode:         mode,
		Supersteps:   last.Metrics.Supersteps,
		MakespanMS:   float64(makespans[len(makespans)/2].Microseconds()) / 1e3,
		Messages:     last.Metrics.Messages,
		MessageBytes: last.Metrics.MessageBytes,
	}
	row.SkewMax, row.SkewMean = foldRatios(ratios)
	row.WorkSkewMax, _ = foldRatios(workRatios)
	if totalWork > 0 && workers > 0 {
		row.WorkSkew = float64(maxWork) * float64(workers) / float64(totalWork)
	}
	return row, last, nil
}

// skewPerStep folds a run's worker_phase compute events into one max/mean
// ratio per superstep of the given per-worker measure, skipping supersteps
// where the measure sums to zero.
func skewPerStep(evs []obs.Event, measure func(obs.WorkerPhase) int64) []float64 {
	per := map[int][]int64{}
	for _, e := range evs {
		wp, ok := e.(obs.WorkerPhase)
		if !ok || wp.Phase != "compute" {
			continue
		}
		per[wp.Superstep] = append(per[wp.Superstep], measure(wp))
	}
	var out []float64
	for _, vals := range per {
		var sum, max int64
		for _, v := range vals {
			sum += v
			if v > max {
				max = v
			}
		}
		if sum <= 0 {
			continue
		}
		out = append(out, float64(max)*float64(len(vals))/float64(sum))
	}
	return out
}

// workTotals sums, over a run's supersteps, the max single-worker work and
// the total work (messages emitted during compute). Their ratio against the
// worker count is the work-weighted barrier skew.
func workTotals(evs []obs.Event) (maxWork, totalWork int64) {
	per := map[int][]int64{}
	for _, e := range evs {
		wp, ok := e.(obs.WorkerPhase)
		if !ok || wp.Phase != "compute" {
			continue
		}
		per[wp.Superstep] = append(per[wp.Superstep], wp.SentMsgs)
	}
	for _, vals := range per {
		var max int64
		for _, v := range vals {
			totalWork += v
			if v > max {
				max = v
			}
		}
		maxWork += max
	}
	return maxWork, totalWork
}

// foldRatios reduces per-superstep ratios to their max and mean.
func foldRatios(rs []float64) (max, mean float64) {
	for _, r := range rs {
		if r > max {
			max = r
		}
		mean += r
	}
	if len(rs) > 0 {
		mean /= float64(len(rs))
	}
	return max, mean
}

// RenderSkew prints the skew ablation table.
func RenderSkew(w io.Writer, rep *SkewReport) {
	fmt.Fprintf(w, "Skew: partition ablation on %q (%d vertices, %d edges, %d workers, median of %d runs)\n",
		rep.Graph, rep.Vertices, rep.Edges, rep.Workers, rep.Runs)
	fmt.Fprintln(w, "skew = per-superstep max/mean worker compute time (1.00 is balanced)")
	t := stats.Table{Header: []string{
		"Algo", "Mode", "Supersteps", "Makespan ms", "Skew max", "Skew mean", "Work skew", "Work max", "Messages",
	}}
	for _, r := range rep.Rows {
		t.Add(string(r.Algo), string(r.Mode), r.Supersteps,
			fmt.Sprintf("%.2f", r.MakespanMS),
			fmt.Sprintf("%.2f", r.SkewMax),
			fmt.Sprintf("%.2f", r.SkewMean),
			fmt.Sprintf("%.2f", r.WorkSkew),
			fmt.Sprintf("%.2f", r.WorkSkewMax),
			r.Messages)
	}
	t.Render(w)
}

// WriteSkewJSON writes the report as indented JSON (the BENCH_skew.json
// artifact the Makefile target records).
func WriteSkewJSON(path string, rep *SkewReport) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
