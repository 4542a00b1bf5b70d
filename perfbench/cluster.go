package main

// cluster-pagerank: back-to-back PageRank jobs with a fixed iteration count.
// Each job is a coordinator plus in-process workers over loopback TCP on the
// direct data plane, reading "shard:" per-shard partitions of a SkewedLike
// graph, with the default durable-checkpoint cadence. The mesh, the frame
// codec, checkpoints and distributed barriers carry this workload; the
// serving layer, live graphs and the result cache are absent.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"graphite/internal/algorithms"
	"graphite/internal/cluster"
	"graphite/internal/core"
	"graphite/internal/engine"
	"graphite/internal/gen"
	"graphite/internal/obs"
	"graphite/internal/serve"
	"graphite/internal/tgraph"
)

const clusterWorkers = 2

func clusterGraph(seed int64, sz sizes) (*tgraph.Graph, error) {
	return gen.Generate(gen.SkewedLike(gen.Scale(sz.clusterScale)), seed)
}

func clusterDigest(seed int64, sz sizes) (string, error) {
	g, err := clusterGraph(seed, sz)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	if err := tgraph.WriteSnapshot(h, g); err != nil {
		return "", err
	}
	fmt.Fprintf(h, "pr iterations=%d workers=%d", sz.prIters, clusterWorkers)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// clusterJob is one finished job and what the coordinator exposed about it.
type clusterJob struct {
	res    *core.Result
	wall   time.Duration
	report cluster.Report
	attr   []cluster.StepAttribution
	reg    *obs.Registry
}

var quietLog = slog.New(slog.NewTextHandler(io.Discard, nil))

// runJob runs one PageRank job from cluster.New to the returned result:
// a coordinator on a loopback listener and one worker goroutine per shard,
// each with a fresh checkpoint directory. It returns once every worker has
// exited.
func runJob(spec, dir string, params algorithms.Params, rec *recorder, op, root int) (*clusterJob, error) {
	reg := obs.NewRegistry()
	start := time.Now()
	var coord *cluster.Coordinator
	var err error
	rec.call(op, root, "cluster.new", func() {
		coord, err = cluster.New(cluster.Config{
			Workers: clusterWorkers, Graph: spec, Algo: "pr", Params: params,
			DataPlane: cluster.PlaneDirect, Registry: reg, Logger: quietLog,
		})
	})
	if err != nil {
		return nil, err
	}
	defer coord.Close()
	serveID := rec.start(op, root, "cluster.serve")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	werrs := make([]error, clusterWorkers)
	for i := 0; i < clusterWorkers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			werrs[i] = cluster.RunWorker(ctx, cluster.WorkerConfig{
				Addr: ln.Addr().String(), Dir: filepath.Join(dir, fmt.Sprintf("w%d", i)),
				DataPlane: cluster.PlaneDirect, Logger: quietLog,
			})
		}(i)
	}
	res, err := coord.Serve(ln)
	wall := time.Since(start)
	rec.end(serveID)
	if err != nil {
		cancel()
	}
	wg.Wait()
	cancel()
	if err != nil {
		return nil, err
	}
	for i, werr := range werrs {
		if werr != nil {
			return nil, fmt.Errorf("worker %d: %w", i, werr)
		}
	}
	return &clusterJob{res: res, wall: wall, report: coord.Report(), attr: coord.Attribution(), reg: reg}, nil
}

// clusterReference runs the job once in a single process, adopting the
// partition files' vertex placement, and returns the digest every job must
// reproduce.
func clusterReference(g *tgraph.Graph, partDir string, params algorithms.Params) (string, error) {
	full, meta, err := cluster.LoadGraphShard("shard:"+partDir, -1)
	if err != nil {
		return "", err
	}
	defer full.Close()
	prog, opts, err := algorithms.New(g, "pr", params)
	if err != nil {
		return "", err
	}
	opts.NumWorkers = clusterWorkers
	opts.Partitioner = meta.Partitioner()
	tp, err := engine.NewTCPTransport(clusterWorkers)
	if err != nil {
		return "", err
	}
	defer tp.Close()
	opts.Transport = tp
	res, err := core.Run(g, prog, opts)
	if err != nil {
		return "", err
	}
	return renderDigest(res), nil
}

// renderDigest hashes a result's rendering. %v prints each float64 in its
// shortest exact form, so equal digests mean bit-identical states.
func renderDigest(res *core.Result) string { return digestLines(serve.FormatResult(res, 0)) }

func runCluster(b *bench) error {
	g, err := clusterGraph(b.seed, b.sz)
	if err != nil {
		return err
	}
	params := algorithms.Params{Iterations: b.sz.prIters}
	b.inputs["vertices"] = int64(g.NumVertices())
	b.inputs["edges"] = int64(g.NumEdges())
	b.inputs["workers"] = clusterWorkers
	b.inputs["pr_iterations"] = int64(b.sz.prIters)

	// Set-up is the operator's one-off cut into per-shard partition files.
	rep := 0
	var partDir string
	setup, err := timedSetup(b.sz.setupReps, func() error {
		rep++
		partDir = filepath.Join(b.work, fmt.Sprintf("parts-%d", rep))
		_, err := cluster.WritePartitions(g, partDir, clusterWorkers)
		return err
	}, func() { _ = os.RemoveAll(partDir) })
	if err != nil {
		return fmt.Errorf("write partitions: %w", err)
	}
	want, err := clusterReference(g, partDir, params)
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	spec := "shard:" + partDir
	resetPeakRSS()
	if b.trace {
		return traceCluster(b, spec, params, want)
	}
	b.setSetup(setup)

	job := 0
	runOne := func() (*clusterJob, error) {
		job++
		dir := filepath.Join(b.work, fmt.Sprintf("job-%d", job))
		defer os.RemoveAll(dir)
		return runJob(spec, dir, params, newRecorder(false), 0, 0)
	}
	for i := 0; i < b.sz.warmupOps; i++ {
		_, err := runOne()
		b.op(err)
	}
	// The run is a fixed number of jobs; the deadline only caps it on a much
	// slower host. Each job's result is kept as the digest of its
	// rendering; jobs/s counts job wall time only, not the digests and
	// checkpoint clean-up between jobs.
	var walls, steps, cpus latencies
	var digests []string
	var busy time.Duration
	deadline := time.Now().Add(b.duration())
	for i := 0; i < b.sz.clusterJobs && time.Now().Before(deadline); i++ {
		cpu0 := cpuTime()
		j, err := runOne()
		b.op(err)
		if err != nil {
			continue
		}
		cpus.add(cpuTime() - cpu0)
		walls.add(j.wall)
		busy += j.wall
		for _, a := range j.attr {
			steps.add(time.Duration(a.WallNS))
		}
		digests = append(digests, renderDigest(j.res))
	}
	// Jobs run one at a time, so each has its own CPU time; the median
	// keeps a job that the host slowed from moving the figure.
	b.set("cpu_ms_per_op", cpus.q(0.5), "ms")
	b.name("job_p50_s", walls.q(0.5)/1e3, "s", len(walls))
	b.name("job_p90_s", walls.q(0.9)/1e3, "s", len(walls))
	b.name("jobs_per_s", ratio(float64(len(walls)), busy.Seconds()), "1/s", len(walls))
	b.name("superstep_p50_ms", steps.q(0.5), "ms", len(steps))
	b.capped(len(walls) < b.sz.clusterJobs)
	b.inputs["jobs"] = int64(len(walls))

	// Output check, after the timed section: every job bit-identical to the
	// single-process reference.
	if b.corrupt == "jobs" && len(digests) > 0 {
		// A plausible but wrong answer: one iteration short.
		prog, opts, err := algorithms.New(g, "pr", algorithms.Params{Iterations: max(b.sz.prIters-1, 1)})
		if err != nil {
			return err
		}
		bad, err := core.Run(g, prog, opts)
		if err != nil {
			return err
		}
		digests[0] = renderDigest(bad)
	}
	for i, d := range digests {
		if d != want {
			b.op(fmt.Errorf("check: job %d differs from the single-process reference", i))
		} else {
			b.op(nil)
		}
	}
	return nil
}

// traceCluster replays jobs in order, timing cluster.New and the run to the
// returned result, and reads the coordinator's per-superstep attribution
// and counters for each.
func traceCluster(b *bench, spec string, params algorithms.Params, want string) error {
	var opens []float64
	for _, shard := range []int{-1, 0, 1} {
		start := time.Now()
		m, _, err := cluster.LoadGraphShard(spec, shard)
		opens = append(opens, ms(time.Since(start)))
		if err != nil {
			return err
		}
		_ = m.Close()
	}
	return tracePasses(b, b.sz.traceOps, func(rec *recorder, budget time.Duration, limit int) (int, time.Duration, error) {
		var (
			compute, wait, deliver, send, recv, skew, assemble []float64
			direct, relay, ckpts, supersteps, messages, bytes  int64
		)
		start := time.Now()
		n := 0
		for ; n < limit && (budget == 0 || time.Since(start) < budget); n++ {
			root := rec.start(n+1, 0, "job")
			dir := filepath.Join(b.work, fmt.Sprintf("trace-job-%d", n))
			j, err := runJob(spec, dir, params, rec, n+1, root)
			rec.end(root)
			_ = os.RemoveAll(dir)
			if err == nil && renderDigest(j.res) != want {
				err = fmt.Errorf("traced job %d differs from the single-process reference", n)
			}
			b.op(err)
			if err != nil {
				continue
			}
			var c, w, d, ps, pr int64
			for _, a := range j.attr {
				skew = append(skew, float64(a.SkewMilli))
				for _, s := range a.Shards {
					c, w, d, ps, pr = c+s.ComputeNS, w+s.WaitNS, d+s.DeliverNS, ps+s.PeerSendNS, pr+s.PeerRecvNS
				}
			}
			compute = append(compute, float64(c)/1e6)
			wait = append(wait, float64(w)/1e6)
			deliver = append(deliver, float64(d)/1e6)
			send = append(send, float64(ps)/1e6)
			recv = append(recv, float64(pr)/1e6)
			assemble = append(assemble, ms(j.wall-j.report.Makespan))
			direct += j.reg.Counter(obs.CClusterDirectBytes).Load()
			relay += j.reg.Counter(obs.CClusterRelayBytes).Load()
			ckpts += int64(j.report.Checkpoints)
			supersteps += int64(j.report.Supersteps)
			if m := j.report.Metrics; m != nil {
				messages += m.Messages
				bytes += m.MessageBytes
			}
		}
		wall := time.Since(start)
		if rec.on {
			jobs := float64(max(n, 1))
			b.set("tgraph.open_ms", median(opens), "ms")
			b.set("cluster.compute_ms", median(compute), "ms")
			b.set("cluster.wait_ms", median(wait), "ms")
			b.set("cluster.deliver_ms", median(deliver), "ms")
			b.set("cluster.peer_send_ms", median(send), "ms")
			b.set("cluster.peer_recv_ms", median(recv), "ms")
			b.set("cluster.step_skew_milli", median(skew), "milli")
			b.set("cluster.assemble_ms", median(assemble), "ms")
			b.set("cluster.direct_bytes", float64(direct)/jobs, "bytes")
			b.set("cluster.relay_bytes", float64(relay)/jobs, "bytes")
			b.set("cluster.checkpoints", float64(ckpts)/jobs, "count")
			b.set("engine.supersteps", float64(supersteps)/jobs, "count")
			b.set("engine.messages", float64(messages)/jobs, "count")
			b.set("engine.message_bytes", float64(bytes)/jobs, "bytes")
		}
		return n, wall, nil
	})
}
