// Command perfbench is the repository benchmark: one closed-loop load
// generator that boots the system under test in its own process behind a
// loopback listener, drives one of three workloads through the public
// surfaces (the /v1 HTTP API, the live-graph event endpoint, the cluster
// coordinator and workers over TCP), checks every output after the timed
// section, and prints each metric by name with its unit.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload query-mix|live-ingest|cluster-pagerank
//	          --seed N --seconds S --trace 0|1 [--out DIR]
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// replays the same seeded op sequence in order through the public functions
// the HTTP handlers and the cluster runtime call, records a span around each
// call, and reports per-layer self times, the program's own counters and the
// tracing overhead; the spans are written to one file in --out.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A failed output check prints that
// object with "correct": false and exits 1; a benchmark that cannot run at
// all (bad flags, failed set-up) exits 1 without printing it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// workload is one traffic mix: how it is planned from a seed and run.
type workload struct {
	// digest hashes the seeded op sequence, so tests can show that a seed
	// fixes the inputs.
	digest func(seed int64, sz sizes) (string, error)
	// run measures the end-to-end metrics (trace off) or replays the op
	// sequence layer by layer (trace on).
	run func(b *bench) error
}

var workloads = map[string]workload{
	"query-mix":        {digest: queryMixDigest, run: runQueryMix},
	"live-ingest":      {digest: liveIngestDigest, run: runLiveIngest},
	"cluster-pagerank": {digest: clusterDigest, run: runCluster},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func run(args []string, stdout, stderr io.Writer) int {
	return runWith(args, stdout, stderr, defaultSizes())
}

func runWith(args []string, stdout, stderr io.Writer, sz sizes) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", fmt.Sprintf("workload to run %v", workloadNames()))
	seed := fs.Int64("seed", 1, "workload seed: the same seed generates the same inputs")
	seconds := fs.Float64("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "1: traced per-layer replay instead of the end-to-end run")
	out := fs.String("out", filepath.Join(".bench_build", "out"), "directory for the report, span file and scratch data")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload %v, --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	b, err := newBench(*name, *seed, *seconds, *trace == 1, *out, sz)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer b.cleanup()
	if err := w.run(b); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	rep := b.finish()
	printReport(stdout, rep)
	if err := b.writeFiles(rep); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(rep.result)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

// sizes are the input sizes of every workload; tests shrink them. Every
// run does the same fixed amount of work, so that a faster program does not
// take on more of it (a larger live graph, more leaked job mappings);
// --seconds only caps how long the timed section may last.
type sizes struct {
	// query-mix: gen.Scale of both graphs; timed requests per client.
	queryScale float64
	queryOps   int
	// live-ingest: compacted base-stream events, base batches left in the
	// WAL, events per ingest batch, the CompactEvery setting, and the timed
	// section's batches and reader requests.
	liveBase    int
	liveTail    int
	liveBatch   int
	liveCompact int
	liveBatches int
	liveReads   int
	// cluster-pagerank: gen.Scale of the SkewedLike graph, PageRank
	// iterations, timed jobs.
	clusterScale float64
	prIters      int
	clusterJobs  int
	// setupReps is how many set-up samples are timed (median reported);
	// warmupOps how many ops each client runs untimed first; traceOps the
	// most ops a traced replay runs.
	setupReps int
	warmupOps int
	traceOps  int
}

func defaultSizes() sizes {
	return sizes{
		queryScale: 0.5, queryOps: 400,
		liveBase: 65536, liveTail: 16, liveBatch: 64, liveCompact: 16384,
		liveBatches: 80, liveReads: 80,
		clusterScale: 0.5, prIters: 10, clusterJobs: 20,
		setupReps: 9, warmupOps: 4, traceOps: 200,
	}
}

// bench is one run of one workload: its configuration and everything it
// measures.
type bench struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sz       sizes
	outDir   string
	work     string // scratch directory, removed by cleanup

	// corrupt, when set, names an output check whose input is damaged
	// before the checks run ("results", "wal", "jobs"); tests use it to
	// prove each check can fail.
	corrupt string

	attempted, failed int64
	mu                sync.Mutex
	problems          []string

	metrics map[string]metric
	named   []namedMetric
	inputs  map[string]int64
	layers  []layerSelf
	spans   []span
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// namedMetric is an end-to-end figure under the name the workload's
// documentation gives it, with its sample count.
type namedMetric struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the full record of a run; the result is its last line.
type report struct {
	result
	Workload string           `json:"workload"`
	Trace    bool             `json:"trace"`
	Env      env              `json:"env"`
	Inputs   map[string]int64 `json:"inputs"`
	Named    []namedMetric    `json:"named"`
	Layers   []layerSelf      `json:"layer_self_time,omitempty"`
	Problems []string         `json:"problems,omitempty"`
}

func newBench(name string, seed int64, seconds float64, trace bool, out string, sz sizes) (*bench, error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, fmt.Errorf("output directory: %w", err)
	}
	work, err := os.MkdirTemp(out, "work-")
	if err != nil {
		return nil, fmt.Errorf("scratch directory: %w", err)
	}
	return &bench{
		workload: name, seed: seed, seconds: seconds, trace: trace, sz: sz,
		outDir: out, work: work,
		metrics: map[string]metric{}, inputs: map[string]int64{},
	}, nil
}

func (b *bench) cleanup() { _ = os.RemoveAll(b.work) }

func (b *bench) duration() time.Duration { return time.Duration(b.seconds * float64(time.Second)) }

// op counts one attempted operation or output check and, when err is
// non-nil, its failure; any failure fails the run.
func (b *bench) op(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if err != nil {
		b.failed++
		if len(b.problems) < 20 {
			b.problems = append(b.problems, err.Error())
		}
	}
}

// capped records whether the --seconds cap cut the timed section short of
// its fixed work; a capped run still reports its figures per op.
func (b *bench) capped(cut bool) {
	b.inputs["capped"] = 0
	if cut {
		b.inputs["capped"] = 1
	}
}

func (b *bench) set(name string, v float64, unit string) {
	b.metrics[name] = metric{Value: v, Unit: unit}
}

func (b *bench) name(name string, v float64, unit string, samples int) {
	b.named = append(b.named, namedMetric{Name: name, Value: v, Unit: unit, Samples: samples})
}

func (b *bench) finish() *report {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.set("peak_rss_mb", peakRSSMB(), "MB")
	metrics := map[string]metric{}
	want := endToEnd
	if b.trace {
		want = perLayer
	}
	for _, m := range want {
		v, ok := b.metrics[m.name]
		if !ok {
			v = metric{Value: 0, Unit: m.unit}
		}
		metrics[m.name] = v
	}
	return &report{
		result: result{
			Correct:   b.failed == 0,
			Attempted: b.attempted,
			Failed:    b.failed,
			Metrics:   metrics,
		},
		Workload: b.workload,
		Trace:    b.trace,
		Env:      stampEnv(b.seed),
		Inputs:   b.inputs,
		Named:    b.named,
		Layers:   b.layers,
		Problems: b.problems,
	}
}

// writeFiles writes the report and, for a traced run, the span file.
func (b *bench) writeFiles(rep *report) error {
	mode := "e2e"
	if b.trace {
		mode = "trace"
	}
	base := filepath.Join(b.outDir, fmt.Sprintf("%s-%s-seed%d", b.workload, mode, b.seed))
	if err := writeJSON(base+".report.json", rep); err != nil {
		return err
	}
	if b.trace {
		return writeJSON(base+".spans.json", b.spans)
	}
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("encode %s: %w", path, err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}

func printReport(w io.Writer, rep *report) {
	e := rep.Env
	fmt.Fprintf(w, "perfbench %s seed=%d trace=%v  nproc=%d GOMAXPROCS=%d %s %s/%s commit=%s\n",
		rep.Workload, e.Seed, rep.Trace, e.NumCPU, e.GOMAXPROCS, e.GoVersion, e.OS, e.Arch, e.Commit)
	keys := make([]string, 0, len(rep.Inputs))
	for k := range rep.Inputs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprint(w, "  inputs:")
	for _, k := range keys {
		fmt.Fprintf(w, " %s=%d", k, rep.Inputs[k])
	}
	fmt.Fprintln(w)
	errRatio := 0.0
	if rep.Attempted > 0 {
		errRatio = float64(rep.Failed) / float64(rep.Attempted)
	}
	fmt.Fprintf(w, "  %-28s %14.6f %-6s (%d failed of %d attempted)\n", "error_ratio", errRatio, "ratio", rep.Failed, rep.Attempted)
	for _, m := range rep.Named {
		fmt.Fprintf(w, "  %-28s %14.4f %-6s (%d samples)\n", m.Name, m.Value, m.Unit, m.Samples)
	}
	for _, l := range rep.Layers {
		fmt.Fprintf(w, "  self %-23s %14.3f ms total over %d spans\n", l.Name, l.TotalMS, l.Spans)
	}
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.Metrics[n]
		fmt.Fprintf(w, "  %-28s %14.4f %s\n", n, m.Value, m.Unit)
	}
	for _, p := range rep.Problems {
		fmt.Fprintf(w, "  FAILED: %s\n", p)
	}
}
