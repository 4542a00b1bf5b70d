package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// tinySizes shrinks every workload so the whole suite runs in seconds.
func tinySizes() sizes {
	return sizes{
		queryScale: 0.05, queryOps: 30,
		liveBase: 512, liveTail: 4, liveBatch: 32, liveCompact: 256,
		liveBatches: 48, liveReads: 32,
		clusterScale: 0.02, prIters: 3, clusterJobs: 3,
		setupReps: 2, warmupOps: 1, traceOps: 32,
	}
}

// named lists, per workload, the end-to-end figures reported under the
// workload's own names besides the generic ones.
var named = map[string][]string{
	"query-mix":        {"setup_s", "run_p50_ms", "run_p90_ms", "hit_p50_ms", "queries_per_s"},
	"live-ingest":      {"setup_s", "ingest_events_per_s", "ack_p50_ms", "ack_p90_ms", "run_p50_ms", "run_p90_ms", "queries_per_s"},
	"cluster-pagerank": {"setup_s", "job_p50_s", "job_p90_s", "jobs_per_s", "superstep_p50_ms"},
}

// exercised lists, per workload, the per-layer metrics its traced run must
// measure, so a renamed span or counter cannot publish 0 unnoticed.
var exercised = map[string][]string{
	"query-mix": {"tgraph.open_ms", "tgraph.slice_ms", "algorithms.new_ms", "core.run_ms",
		"engine.compute_ms", "engine.supersteps", "engine.messages", "icm.compute_calls",
		"icm.scatter_calls", "serve.execute_ms", "serve.hit_execute_ms", "serve.encode_ms",
		"serve.format_ms", "serve.response_bytes"},
	"live-ingest": {"tgraph.slice_ms", "core.run_ms", "engine.supersteps", "serve.execute_ms",
		"serve.hit_execute_ms", "serve.encode_ms", "serve.cache_hit_ratio", "serve.seed_hit_ratio",
		"stream.decode_ms", "live.apply_ms", "live.compact_ms", "live.acquire_ms", "live.open_ms",
		"live.wal_bytes_per_event"},
	"cluster-pagerank": {"tgraph.open_ms", "cluster.compute_ms", "cluster.wait_ms",
		"cluster.deliver_ms", "cluster.peer_send_ms", "cluster.peer_recv_ms", "cluster.assemble_ms",
		"cluster.direct_bytes", "engine.supersteps", "engine.messages"},
}

func runTiny(t *testing.T, name string, trace bool, corrupt string) *report {
	t.Helper()
	// A traced replay runs as many ops as fit a third of the run, up to
	// traceOps; a longer run lets every tiny replay reach that limit.
	seconds := 0.4
	if trace {
		seconds = 3
	}
	b, err := newBench(name, 7, seconds, trace, t.TempDir(), tinySizes())
	if err != nil {
		t.Fatal(err)
	}
	defer b.cleanup()
	b.corrupt = corrupt
	if err := workloads[name].run(b); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return b.finish()
}

func TestWorkloadsEmitEveryMetric(t *testing.T) {
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			rep := runTiny(t, name, trace, "")
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v failed=%d of %d: %v",
					name, trace, rep.Correct, rep.Failed, rep.Attempted, rep.Problems)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v), want unit %s", name, trace, m.name, got, ok, m.unit)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.name, got.Value)
				}
			}
			if trace {
				for _, m := range append([]string{"trace.ops", "trace.spans"}, exercised[name]...) {
					if rep.Metrics[m].Value <= 0 {
						t.Errorf("%s: traced run measured %s = %v, want > 0", name, m, rep.Metrics[m].Value)
					}
				}
				continue
			}
			have := map[string]bool{}
			for _, m := range rep.Named {
				have[m.Name] = m.Unit != ""
			}
			for _, n := range named[name] {
				if !have[n] {
					t.Errorf("%s: named metric %s missing or without unit", name, n)
				}
			}
		}
	}
}

func TestSeedFixesOpSequence(t *testing.T) {
	sz := tinySizes()
	for _, name := range workloadNames() {
		d := workloads[name].digest
		a, err := d(1, sz)
		if err != nil {
			t.Fatal(err)
		}
		again, _ := d(1, sz)
		other, _ := d(2, sz)
		if a != again {
			t.Errorf("%s: seed 1 gave two op sequences", name)
		}
		if a == other {
			t.Errorf("%s: seeds 1 and 2 gave the same op sequence", name)
		}
	}
}

func TestChecksCatchCorruption(t *testing.T) {
	for _, tc := range []struct{ workload, corrupt string }{
		{"query-mix", "results"},
		{"live-ingest", "results"},
		{"live-ingest", "wal"},
		{"cluster-pagerank", "jobs"},
	} {
		rep := runTiny(t, tc.workload, false, tc.corrupt)
		if rep.Correct || rep.Failed == 0 {
			t.Errorf("%s with corrupted %s: correct=%v failed=%d", tc.workload, tc.corrupt, rep.Correct, rep.Failed)
		}
		if tc.corrupt == "wal" && rep.Failed < 2 {
			t.Errorf("live-ingest with an unacked batch in the WAL: %d checks failed, want the graph and the event count", rep.Failed)
		}
	}
}

func TestSelfTimesNest(t *testing.T) {
	spans := []span{
		{ID: 1, Op: 1, Name: "query", Start: 0, End: 100},
		{ID: 2, Parent: 1, Op: 1, Name: "serve.execute", Start: 10, End: 60},
		{ID: 3, Parent: 2, Op: 1, Name: "core.run", Start: 20, End: 50},
		{ID: 4, Parent: 1, Op: 1, Name: "serve.encode", Start: 70, End: 90},
		{ID: 5, Op: 2, Name: "query", Start: 100, End: 110},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 30, 2: 20, 3: 30, 4: 20, 5: 10} {
		if self[id] != want {
			t.Errorf("span %d self = %d, want %d", id, self[id], want)
		}
	}
	if err := checkSelfSums(spans); err != nil {
		t.Error(err)
	}
	spans[3].Parent = 0 // a second root: op 1's roots no longer nest
	if err := checkSelfSums(spans); err == nil {
		t.Error("checkSelfSums accepted an op whose spans do not nest under one root")
	}
}

// TestBenchmarkJSON keeps the repository's BENCHMARK.json in step with the
// workloads and metrics this program emits.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var bj struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if strings.Join(names, " ") != strings.Join(workloadNames(), " ") {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloadNames())
	}
	for _, c := range []struct {
		list []entry
		defs []metricDef
	}{{bj.EndToEnd, endToEnd}, {bj.PerLayer, perLayer}} {
		if len(c.list) != len(c.defs) {
			t.Errorf("BENCHMARK.json lists %d metrics, program emits %d", len(c.list), len(c.defs))
			continue
		}
		for i, m := range c.defs {
			if c.list[i].Name != m.name || c.list[i].Unit != m.unit {
				t.Errorf("BENCHMARK.json metric %d = %+v, program emits %s %s", i, c.list[i], m.name, m.unit)
			}
		}
	}
}

func TestResultLine(t *testing.T) {
	out := t.TempDir()
	var stdout, stderr bytes.Buffer
	code := runWith([]string{"--workload", "query-mix", "--seed", "3", "--seconds", "0.3", "--trace", "1", "--out", out},
		&stdout, &stderr, tinySizes())
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := last[k]; !ok {
			t.Errorf("result line lacks %q", k)
		}
	}
	if len(last) != 4 {
		t.Errorf("result line has %d keys, want 4", len(last))
	}
	data, err := os.ReadFile(filepath.Join(out, "query-mix-trace-seed3.spans.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil || len(spans) == 0 {
		t.Fatalf("span file: %d spans, err %v", len(spans), err)
	}
	if code := runWith([]string{"--workload", "nope"}, &stdout, &stderr, tinySizes()); code == 0 {
		t.Error("unknown workload exited 0")
	}
}
