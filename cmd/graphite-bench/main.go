// Command graphite-bench regenerates the tables and figures of the ICM
// paper's evaluation over the synthetic dataset profiles.
//
// Usage:
//
//	graphite-bench [flags] <experiment>...
//
// Experiments: table1, table2, fig4, fig5, fig6a, fig6b, fig6c, fig7,
// msgsize, loc, chaos, alloc, skew, obs, recovery, stream, cluster, all. The
// skew experiment is the partition ablation (range vs balanced vertex
// placement on a heavily skewed power-law graph); -skew-json
// records its report. The recovery experiment runs the multi-process cluster
// runtime, SIGKILLs a worker mid-superstep, and measures detection latency,
// MTTR, and replayed supersteps against a fault-free run; -recovery-json
// records its report. Worker processes are re-executions of this binary. The
// stream experiment measures the live-graph subsystem: durable WAL ingest
// throughput, replay cost, and incremental (seeded) vs cold recomputation
// with bit-identity enforced; -stream-json records its report. The cluster
// experiment runs the same partitioned computation on the relay and direct
// data planes, checks both bit-identical against a single-process run, and
// records makespans, plane byte counters, and per-shard resident graph
// sizes; -cluster-json records its report.
//
// With -trace, every ICM run in the selected experiments appends its
// per-superstep event stream to one JSONL file (render with graphite-trace);
// with -pprof, the metrics registry and the Go profiler are served over HTTP
// while the experiments run.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"graphite/internal/bench"
	"graphite/internal/chaos"
	"graphite/internal/gen"
	"graphite/internal/obs"
)

func main() {
	// Re-executions of this binary spawned by the recovery experiment become
	// cluster workers here and never reach the flag parsing below.
	chaos.RunChildWorker()
	var (
		scale     = flag.Float64("scale", 1.0, "dataset scale factor (1.0 ~ quick laptop runs)")
		workers   = flag.Int("workers", 8, "BSP workers (the paper's cluster uses 8 nodes)")
		batch     = flag.Int("batch", 6, "Chlonos snapshots per batch")
		prIters   = flag.Int("pr-iters", 10, "PageRank iterations")
		seed      = flag.Int64("seed", 42, "dataset generator seed")
		algos     = flag.String("algos", "", "comma-separated algorithm subset for table2/fig4/fig5 (default: all 12)")
		tracePath = flag.String("trace", "", "append every ICM run's JSONL trace to this file")
		skewJSON  = flag.String("skew-json", "", "write the skew experiment report as JSON to this file")
		obsJSON   = flag.String("obs-json", "", "write the obs overhead-guard report as JSON to this file")
		recJSON   = flag.String("recovery-json", "", "write the recovery experiment report as JSON to this file")
		strJSON   = flag.String("stream-json", "", "write the stream experiment report as JSON to this file")
		loadJSON  = flag.String("load-json", "", "write the load experiment report as JSON to this file")
		clusJSON  = flag.String("cluster-json", "", "write the cluster data-plane experiment report as JSON to this file")
		pprofAddr = flag.String("pprof", "", "serve /debug/vars and /debug/pprof on this address")
		verbose   = flag.Bool("v", false, "verbose (debug-level) logging")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: graphite-bench [flags] <experiment>...\n")
		fmt.Fprintf(os.Stderr, "experiments: table1 table2 fig4 fig5 fig6a fig6b fig6c fig7 msgsize loc chaos alloc skew obs recovery stream load cluster all\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	log := obs.CLILogger("graphite-bench", *verbose)
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}

	cfg := bench.Config{
		Scale:        gen.Scale(*scale),
		Workers:      *workers,
		BatchSize:    *batch,
		PRIterations: *prIters,
		Seed:         *seed,
		Registry:     obs.NewRegistry(),
	}
	if *pprofAddr != "" {
		srv, err := obs.ServeDebug(*pprofAddr, cfg.Registry)
		if err != nil {
			log.Error("pprof endpoint", "err", err)
			os.Exit(1)
		}
		defer srv.Close()
		log.Info("debug endpoint up", "addr", srv.Addr)
	}
	if *tracePath != "" {
		jt, err := obs.CreateJSONLTrace(*tracePath)
		if err != nil {
			log.Error("open trace", "err", err)
			os.Exit(1)
		}
		cfg.Tracer = jt
		defer func() {
			if err := jt.Close(); err != nil {
				log.Error("close trace", "err", err)
			}
		}()
		log.Debug("tracing ICM runs", "path", *tracePath)
	}
	skewJSONPath = *skewJSON
	obsJSONPath = *obsJSON
	recoveryJSONPath = *recJSON
	streamJSONPath = *strJSON
	loadJSONPath = *loadJSON
	clusterJSONPath = *clusJSON
	selected := parseAlgos(*algos)

	for _, exp := range flag.Args() {
		log.Debug("experiment start", "exp", exp)
		if err := run(cfg, exp, selected); err != nil {
			log.Error("experiment failed", "exp", exp, "err", err)
			os.Exit(1)
		}
		fmt.Println()
	}
}

func parseAlgos(s string) []bench.Algo {
	if s == "" {
		return append(append([]bench.Algo{}, bench.TIAlgos...), bench.TDAlgos...)
	}
	var out []bench.Algo
	for _, part := range strings.Split(s, ",") {
		out = append(out, bench.Algo(strings.ToUpper(strings.TrimSpace(part))))
	}
	return out
}

// matrix caches the expensive full measurement across experiments that
// share it.
var matrix []bench.Cell

// skewJSONPath, obsJSONPath, recoveryJSONPath and streamJSONPath, when set,
// receive the corresponding experiments' JSON reports.
var skewJSONPath, obsJSONPath, recoveryJSONPath, streamJSONPath, loadJSONPath, clusterJSONPath string

func getMatrix(cfg bench.Config, algos []bench.Algo) ([]bench.Cell, error) {
	if matrix != nil {
		return matrix, nil
	}
	var err error
	matrix, err = bench.RunMatrix(cfg, algos)
	return matrix, err
}

func run(cfg bench.Config, exp string, algos []bench.Algo) error {
	w := os.Stdout
	switch exp {
	case "all":
		for _, e := range []string{"table1", "table2", "fig4", "fig5", "fig6a", "fig6b", "fig6c", "fig7", "msgsize", "loc", "chaos", "alloc"} {
			if err := run(cfg, e, algos); err != nil {
				return err
			}
			fmt.Println()
		}
		return nil
	case "table1":
		rows, err := bench.Table1(cfg)
		if err != nil {
			return err
		}
		bench.RenderTable1(w, rows)
	case "table2":
		cells, err := getMatrix(cfg, algos)
		if err != nil {
			return err
		}
		bench.RenderTable2(w, bench.Table2(cells))
	case "fig4":
		cells, err := getMatrix(cfg, algos)
		if err != nil {
			return err
		}
		bench.RenderFig4(w, bench.Fig4(cells))
	case "fig5":
		cells, err := getMatrix(cfg, algos)
		if err != nil {
			return err
		}
		bench.RenderFig5(w, cells)
	case "fig6a":
		rows, err := bench.Fig6a(cfg)
		if err != nil {
			return err
		}
		bench.RenderFig6a(w, rows)
	case "fig6b":
		rows, err := bench.Fig6b(cfg)
		if err != nil {
			return err
		}
		bench.RenderFig6b(w, rows)
	case "fig6c":
		rows, err := bench.Fig6c(cfg)
		if err != nil {
			return err
		}
		bench.RenderFig6c(w, rows)
	case "fig7":
		rows, err := bench.Fig7(cfg, nil, nil)
		if err != nil {
			return err
		}
		bench.RenderFig7(w, rows)
	case "msgsize":
		rows, err := bench.MsgSize(cfg)
		if err != nil {
			return err
		}
		bench.RenderMsgSize(w, rows)
	case "loc":
		rows, err := bench.LoCTable()
		if err != nil {
			return err
		}
		bench.RenderLoC(w, rows)
	case "chaos":
		rows, err := bench.Chaos(cfg)
		if err != nil {
			return err
		}
		bench.RenderChaos(w, rows)
	case "alloc":
		rows, err := bench.Alloc(cfg)
		if err != nil {
			return err
		}
		bench.RenderAlloc(w, rows)
	case "skew":
		rep, err := bench.Skew(cfg)
		if err != nil {
			return err
		}
		bench.RenderSkew(w, rep)
		if skewJSONPath != "" {
			if err := bench.WriteSkewJSON(skewJSONPath, rep); err != nil {
				return err
			}
		}
	case "obs":
		rep, err := bench.Obs(cfg)
		if rep != nil {
			bench.RenderObs(w, rep)
			if obsJSONPath != "" {
				if werr := bench.WriteObsJSON(obsJSONPath, rep); werr != nil && err == nil {
					err = werr
				}
			}
		}
		if err != nil {
			return err
		}
	case "recovery":
		rep, err := bench.Recovery(cfg)
		if err != nil {
			return err
		}
		bench.RenderRecovery(w, rep)
		if recoveryJSONPath != "" {
			if err := bench.WriteRecoveryJSON(recoveryJSONPath, rep); err != nil {
				return err
			}
		}
	case "stream":
		rep, err := bench.Stream(cfg)
		if err != nil {
			return err
		}
		bench.RenderStream(w, rep)
		if streamJSONPath != "" {
			if err := bench.WriteStreamJSON(streamJSONPath, rep); err != nil {
				return err
			}
		}
	case "load":
		rep, err := bench.Load(cfg)
		if err != nil {
			return err
		}
		bench.RenderLoad(w, rep)
		if loadJSONPath != "" {
			if err := bench.WriteLoadJSON(loadJSONPath, rep); err != nil {
				return err
			}
		}
	case "cluster":
		rep, err := bench.ClusterBench(cfg)
		if err != nil {
			return err
		}
		bench.RenderCluster(w, rep)
		if clusterJSONPath != "" {
			if err := bench.WriteClusterJSON(clusterJSONPath, rep); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("unknown experiment (try: table1 table2 fig4 fig5 fig6a fig6b fig6c fig7 msgsize loc chaos alloc skew obs recovery stream load cluster all)")
	}
	return nil
}
