package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"time"

	"graphite/internal/algorithms"
	"graphite/internal/core"
	"graphite/internal/gen"
	ival "graphite/internal/interval"
	"graphite/internal/live"
	"graphite/internal/stats"
	"graphite/internal/tgraph"
)

// --- load: graph-load latency across formats, and compacted recovery ---
//
// Two measurements on the storage layer:
//
//  1. Format load latency: the same generated graph written as text and as
//     the mmap-able snapshot; each is opened loadRuns times and the median
//     wall time reported. The snapshot has two rows — verified
//     (every section CRC checked, touching all pages) and trusted (header
//     and directory only, pages fault in on demand) — and the trusted open
//     must beat the text parse by at least loadMinSpeedup, or the
//     experiment fails: that ratio is the point of the format.
//  2. Compacted recovery: the same event stream is recovered twice, once by
//     replaying the full WAL and once from a snapshot compacted at ~75% of
//     ingest plus the WAL tail. The tail must be strictly shorter than the
//     full history and both recoveries must produce identical graphs.
//
// Every timing row is backed by an identity check: EAT, SSSP and PageRank
// run over the mapped snapshot must match the text-parsed graph vertex for
// vertex, so speed never comes from answering on different data.

// loadRuns is how many measured opens back each timing; medians are
// reported.
const loadRuns = 5

// loadMinSpeedup is the acceptance floor for trusted-mmap open vs text
// parse.
const loadMinSpeedup = 10.0

// loadCompactFrac places the compaction at this fraction of the ingested
// batches.
const loadCompactFrac = 0.75

// LoadFormatRow is one format's size and median open latency.
type LoadFormatRow struct {
	Format  string  `json:"format"`
	Bytes   int64   `json:"bytes"`
	OpenMS  float64 `json:"open_ms"`
	Speedup float64 `json:"speedup_vs_text"` // text parse wall / this open wall
}

// LoadReport is the load experiment artifact (BENCH_load.json).
type LoadReport struct {
	Graph    string `json:"graph"`
	Vertices int    `json:"vertices"`
	Edges    int    `json:"edges"`
	Runs     int    `json:"runs_per_cell"`
	// Formats: text parse, snapshot verified, snapshot trusted (mmap, CRCs
	// skipped).
	Formats []LoadFormatRow `json:"formats"`
	// MappedIdentical records the algorithm-identity check over the mapped
	// snapshot (the experiment fails if any vertex diverges).
	MappedIdentical bool `json:"mapped_identical"`
	// WAL recovery: full replay vs compacted snapshot + tail.
	TotalEvents       int     `json:"total_events"`
	TailEvents        int     `json:"tail_events"` // replayed after the snapshot
	ReplayMS          float64 `json:"replay_ms"`   // full-log recovery
	CompactedOpenMS   float64 `json:"compacted_open_ms"`
	SnapshotBytes     int64   `json:"snapshot_bytes"`
	WALBytesFull      int64   `json:"wal_bytes_full"`
	WALBytesCompacted int64   `json:"wal_bytes_compacted"`
}

// medianOpenMS times fn loadRuns times (after one warm-up) and returns the
// median wall in milliseconds.
func medianOpenMS(fn func() error) (float64, error) {
	if err := fn(); err != nil {
		return 0, err
	}
	walls := make([]time.Duration, 0, loadRuns)
	for i := 0; i < loadRuns; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		walls = append(walls, time.Since(start))
	}
	sort.Slice(walls, func(a, b int) bool { return walls[a] < walls[b] })
	return float64(walls[len(walls)/2].Nanoseconds()) / 1e6, nil
}

// Load runs the load experiment.
func Load(cfg Config) (*LoadReport, error) {
	// webuk is the densest Table 1 profile: the largest file of the set,
	// which is where load latency differences matter.
	profile := gen.WebUKLike(cfg.Scale)
	g, err := gen.Generate(profile, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("bench: load generate: %w", err)
	}
	dir, err := os.MkdirTemp("", "graphite-load-*")
	if err != nil {
		return nil, fmt.Errorf("bench: load scratch dir: %w", err)
	}
	defer os.RemoveAll(dir)

	rep := &LoadReport{
		Graph:    profile.Name,
		Vertices: g.NumVertices(),
		Edges:    g.NumEdges(),
		Runs:     loadRuns,
	}

	textPath := filepath.Join(dir, "g.tg")
	snapPath := filepath.Join(dir, "g.gsn")
	if err := tgraph.WriteFile(textPath, g); err != nil {
		return nil, err
	}
	if err := tgraph.WriteSnapshotFile(snapPath, g); err != nil {
		return nil, err
	}

	fileSize := func(path string) int64 {
		st, err := os.Stat(path)
		if err != nil {
			return -1
		}
		return st.Size()
	}
	cells := []struct {
		format string
		path   string
		open   func() error
	}{
		{"text", textPath, func() error { _, err := tgraph.ReadFile(textPath); return err }},
		{"snapshot-verified", snapPath, func() error {
			m, err := tgraph.OpenMapped(snapPath)
			if err != nil {
				return err
			}
			return m.Close()
		}},
		{"snapshot-trusted", snapPath, func() error {
			m, err := tgraph.OpenMappedTrusted(snapPath)
			if err != nil {
				return err
			}
			return m.Close()
		}},
	}
	for _, c := range cells {
		ms, err := medianOpenMS(c.open)
		if err != nil {
			return nil, fmt.Errorf("bench: load %s: %w", c.format, err)
		}
		rep.Formats = append(rep.Formats, LoadFormatRow{Format: c.format, Bytes: fileSize(c.path), OpenMS: ms})
	}
	textMS := rep.Formats[0].OpenMS
	for i := range rep.Formats {
		if rep.Formats[i].OpenMS > 0 {
			rep.Formats[i].Speedup = textMS / rep.Formats[i].OpenMS
		}
	}
	trusted := rep.Formats[len(rep.Formats)-1]
	if trusted.Speedup < loadMinSpeedup {
		return nil, fmt.Errorf("bench: load: trusted mmap open is only %.1fx faster than text parse (want >= %.0fx): %.3fms vs %.3fms",
			trusted.Speedup, loadMinSpeedup, trusted.OpenMS, textMS)
	}

	// Identity: algorithms over the mapped snapshot must match the parsed
	// text graph vertex for vertex.
	if err := loadIdentity(textPath, snapPath, cfg.Workers, cfg.PRIterations); err != nil {
		return nil, fmt.Errorf("bench: load identity: %w", err)
	}
	rep.MappedIdentical = true

	// WAL recovery: full replay vs compacted snapshot + tail.
	if err := loadRecovery(cfg, dir, rep); err != nil {
		return nil, fmt.Errorf("bench: load recovery: %w", err)
	}
	return rep, nil
}

// loadIdentity runs EAT, SSSP and PageRank over the text-parsed and the
// mapped graphs and requires identical per-vertex states.
func loadIdentity(textPath, snapPath string, workers, prIters int) error {
	gt, err := tgraph.ReadFile(textPath)
	if err != nil {
		return err
	}
	m, err := tgraph.OpenMapped(snapPath)
	if err != nil {
		return err
	}
	defer m.Close()
	src := gt.VertexAt(0).ID
	runs := []struct {
		name string
		run  func(g *tgraph.Graph) (*core.Result, error)
	}{
		{"eat", func(g *tgraph.Graph) (*core.Result, error) { return algorithms.RunEAT(g, src, 0, workers) }},
		{"sssp", func(g *tgraph.Graph) (*core.Result, error) { return algorithms.RunSSSP(g, src, 0, workers) }},
		{"pr", func(g *tgraph.Graph) (*core.Result, error) { return algorithms.RunPageRank(g, prIters, workers) }},
	}
	for _, r := range runs {
		rt, err := r.run(gt)
		if err != nil {
			return fmt.Errorf("%s on text graph: %w", r.name, err)
		}
		rm, err := r.run(m.Graph)
		if err != nil {
			return fmt.Errorf("%s on mapped graph: %w", r.name, err)
		}
		for v := 0; v < gt.NumVertices(); v++ {
			st, sm := rt.State(v), rm.State(v)
			if (st == nil) != (sm == nil) {
				return fmt.Errorf("%s vertex %d: state presence diverges between text and mapped", r.name, v)
			}
			if st != nil && !reflect.DeepEqual(st.Parts(), sm.Parts()) {
				return fmt.Errorf("%s vertex %d diverges between text and mapped graphs", r.name, v)
			}
		}
	}
	return nil
}

// loadRecovery ingests the chain stream twice — one WAL left whole, one
// compacted at ~75% — and times both recoveries, requiring the compacted
// path to replay a strict tail and produce the identical graph.
func loadRecovery(cfg Config, dir string, rep *LoadReport) error {
	vertices := int(1500 * float64(cfg.Scale))
	if vertices < 60 {
		vertices = 60
	}
	const perBatch = 30
	batches := vertices / perBatch
	horizon := ival.Time(vertices)
	fullPath := filepath.Join(dir, "full.wal")
	compPath := filepath.Join(dir, "comp.wal")
	opts := func(name string) live.Options {
		return live.Options{Name: name, Horizon: horizon, NoSync: true}
	}
	full, err := live.Open(fullPath, opts("load-full"))
	if err != nil {
		return err
	}
	comp, err := live.Open(compPath, opts("load-comp"))
	if err != nil {
		return err
	}
	compactAt := int(float64(batches) * loadCompactFrac)
	for i := 0; i < batches; i++ {
		b := streamBatch(i*perBatch, (i+1)*perBatch)
		if _, err := full.Apply(b); err != nil {
			return fmt.Errorf("ingest batch %d: %w", i, err)
		}
		if _, err := comp.Apply(b); err != nil {
			return fmt.Errorf("ingest batch %d (compacted log): %w", i, err)
		}
		if i == compactAt {
			st, err := comp.Compact()
			if err != nil {
				return fmt.Errorf("compact at batch %d: %w", i, err)
			}
			rep.SnapshotBytes = st.SnapshotBytes
		}
	}
	rep.TotalEvents = full.Info().Events
	full.Close()
	comp.Close()
	rep.WALBytesFull = size(fullPath)
	rep.WALBytesCompacted = size(compPath)

	reopen := func(path, name string) (*live.Graph, float64, error) {
		var g *live.Graph
		ms, err := medianOpenMS(func() error {
			if g != nil {
				g.Close()
			}
			var err error
			g, err = live.Open(path, opts(name))
			return err
		})
		return g, ms, err
	}
	gFull, replayMS, err := reopen(fullPath, "load-full")
	if err != nil {
		return err
	}
	defer gFull.Close()
	gComp, compMS, err := reopen(compPath, "load-comp")
	if err != nil {
		return err
	}
	defer gComp.Close()
	rep.ReplayMS, rep.CompactedOpenMS = replayMS, compMS

	recF, recC := gFull.LastRecovery(), gComp.LastRecovery()
	rep.TailEvents = recC.TailEvents
	if recF.FromSnapshot || recF.TailEvents != rep.TotalEvents {
		return fmt.Errorf("full-log recovery unexpectedly partial: %+v", recF)
	}
	if !recC.FromSnapshot || recC.TailEvents >= rep.TotalEvents {
		return fmt.Errorf("compacted recovery replayed %d of %d events — not a strict tail (%+v)",
			recC.TailEvents, rep.TotalEvents, recC)
	}
	epF, epC := gFull.Acquire(), gComp.Acquire()
	defer epF.Release()
	defer epC.Release()
	if err := tgraph.Equal(epF.Graph(), epC.Graph()); err != nil {
		return fmt.Errorf("compacted recovery and full replay produced different graphs: %w", err)
	}
	return nil
}

func size(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return -1
	}
	return st.Size()
}

// RenderLoad prints the load experiment tables.
func RenderLoad(w io.Writer, rep *LoadReport) {
	fmt.Fprintf(w, "Load: graph %q (%d vertices, %d edges), median of %d opens; mapped-vs-text identity: %v\n",
		rep.Graph, rep.Vertices, rep.Edges, rep.Runs, rep.MappedIdentical)
	t := stats.Table{Header: []string{"Format", "Bytes", "Open ms", "vs text"}}
	for _, r := range rep.Formats {
		t.Add(r.Format, r.Bytes, fmt.Sprintf("%.3f", r.OpenMS), fmt.Sprintf("%.1fx", r.Speedup))
	}
	t.Render(w)
	fmt.Fprintf(w, "recovery: full replay of %d events in %.2f ms (WAL %d bytes); compacted open %.2f ms replaying a %d-event tail (snapshot %d + WAL %d bytes)\n",
		rep.TotalEvents, rep.ReplayMS, rep.WALBytesFull,
		rep.CompactedOpenMS, rep.TailEvents, rep.SnapshotBytes, rep.WALBytesCompacted)
}

// WriteLoadJSON writes the report as indented JSON (the BENCH_load.json
// artifact the Makefile target records).
func WriteLoadJSON(path string, rep *LoadReport) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
