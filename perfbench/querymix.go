package main

// query-mix: two closed-loop clients send seeded /v1/run requests to a
// serve.Server holding two mapped .gsn graphs of opposite lifespan shape — a
// long-lived MAGLike (warp shares work across time) and a unit-heavy
// RedditLike (warp is mostly suppressed). Requests use eight catalog
// algorithms over random windows with sources and targets alive in their
// window; a quarter repeat a small hot set that fits the default result
// cache, so the cache is both used and bypassed.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"time"

	"graphite/internal/gen"
	ival "graphite/internal/interval"
	"graphite/internal/serve"
	"graphite/internal/tgraph"
)

const queryClients = 2

var queryAlgos = []string{"sssp", "eat", "fast", "tmst", "rh", "ld", "bfs", "wcc"}

type queryInputs struct {
	graphs  map[string]*tgraph.Graph
	names   []string // sorted
	clients [][]serve.RunRequest
}

// planQueryMix generates the workload's inputs. The two graphs are fixed
// instances (generator seeds 1 and 2), so runs differ only in their seeded
// request streams: a different graph per seed moved CPU per request by
// about 8% on its own.
func planQueryMix(seed int64, sz sizes) (*queryInputs, error) {
	in := &queryInputs{graphs: map[string]*tgraph.Graph{}, names: []string{"mag", "reddit"}}
	for i, p := range []gen.Profile{gen.MAGLike(gen.Scale(sz.queryScale)), gen.RedditLike(gen.Scale(sz.queryScale))} {
		g, err := gen.Generate(p, 1+int64(i))
		if err != nil {
			return nil, fmt.Errorf("generate %s: %w", p.Name, err)
		}
		in.graphs[in.names[i]] = g
	}
	r := rand.New(rand.NewSource(seed))
	// The hot set holds one whole-lifetime request per graph and algorithm,
	// so every seed's hits span the same mix of reply sizes.
	var hot []serve.RunRequest
	for _, name := range in.names {
		for _, algo := range queryAlgos {
			hot = append(hot, in.request(r, name, algo, false))
		}
	}
	// Every fourth request repeats the hot set in a seeded order. The others
	// cycle through every graph, algorithm and window kind (three windowed
	// rounds to one whole-lifetime round), so any prefix of a client's
	// sequence holds the same mix and only sources and windows are random.
	strata := len(queryAlgos) * len(in.names)
	for c := 0; c < queryClients; c++ {
		ops := make([]serve.RunRequest, sz.warmupOps+sz.queryOps)
		order := r.Perm(len(hot))
		for i := range ops {
			if i%4 == 3 {
				ops[i] = hot[order[(i/4)%len(hot)]]
				continue
			}
			k := i - i/4 + c*strata/2 // clients start half a round apart
			name := in.names[(k/len(queryAlgos))%len(in.names)]
			ops[i] = in.request(r, name, queryAlgos[k%len(queryAlgos)], (k/strata)%4 != 3)
		}
		in.clients = append(in.clients, ops)
	}
	return in, nil
}

// request draws a valid request for one graph and algorithm: over the
// whole lifetime or, when windowed, a random window inside it, with a
// source or target vertex alive somewhere in that window.
func (in *queryInputs) request(r *rand.Rand, name, algo string, windowed bool) serve.RunRequest {
	g := in.graphs[name]
	req := serve.RunRequest{Graph: name, Algorithm: algo}
	life := g.Lifespan()
	w := life
	if n := int64(life.End - life.Start); n >= 2 && windowed {
		a := int64(life.Start) + r.Int63n(n-1)
		b := a + 1 + r.Int63n(int64(life.End)-a)
		req.Window = &serve.Window{Start: a, End: b}
		w = ival.New(ival.Time(a), ival.Time(b))
	}
	v := aliveIn(r, g, w)
	switch algo {
	case "wcc":
	case "ld":
		req.Params = map[string]int64{"target": v}
	case "bfs":
		req.Params = map[string]int64{"source": v}
	default:
		req.Params = map[string]int64{"source": v, "start": int64(w.Start)}
	}
	return req
}

// aliveIn picks a vertex whose lifespan overlaps w; the window always holds
// one because it lies inside the graph's lifespan.
func aliveIn(r *rand.Rand, g *tgraph.Graph, w ival.Interval) int64 {
	n := g.NumVertices()
	for try := 0; try < 64; try++ {
		v := g.VertexAt(r.Intn(n))
		if !v.Lifespan.Intersect(w).IsEmpty() {
			return int64(v.ID)
		}
	}
	for i, off := 0, r.Intn(n); i < n; i++ {
		v := g.VertexAt((i + off) % n)
		if !v.Lifespan.Intersect(w).IsEmpty() {
			return int64(v.ID)
		}
	}
	return int64(g.VertexAt(0).ID)
}

func queryMixDigest(seed int64, sz sizes) (string, error) {
	in, err := planQueryMix(seed, sz)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	for _, ops := range in.clients {
		for i := range ops {
			h.Write([]byte(key(&ops[i])))
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// queryServer is the system under test for query-mix: both graphs mapped
// from .gsn files and served over loopback.
type queryServer struct {
	maps []*tgraph.Mapped
	lb   *loopback
}

func (qs *queryServer) close() {
	if qs.lb != nil {
		qs.lb.close()
	}
	for _, m := range qs.maps {
		_ = m.Close()
	}
}

// byName returns the mapped graphs by name.
func (qs *queryServer) byName(names []string) map[string]*tgraph.Graph {
	m := map[string]*tgraph.Graph{}
	for i, name := range names {
		m[name] = qs.maps[i].Graph
	}
	return m
}

// openQueryServer maps the graph files and starts the server: the timed
// set-up. rec, when tracing, records each file mapping under op.
func openQueryServer(paths map[string]string, names []string, rec *recorder, op, root int) (*queryServer, error) {
	qs := &queryServer{}
	graphs := map[string]*tgraph.Graph{}
	for _, name := range names {
		var m *tgraph.Mapped
		var err error
		rec.call(op, root, "tgraph.open", func() { m, err = tgraph.OpenMapped(paths[name]) })
		if err != nil {
			qs.close()
			return nil, fmt.Errorf("map %s: %w", paths[name], err)
		}
		qs.maps = append(qs.maps, m)
		graphs[name] = m.Graph
	}
	srv, err := serve.New(serve.Config{Graphs: graphs})
	if err != nil {
		qs.close()
		return nil, err
	}
	if qs.lb, err = listen(srv); err != nil {
		_ = srv.Close()
		qs.close()
		return nil, err
	}
	return qs, nil
}

func runQueryMix(b *bench) error {
	in, err := planQueryMix(b.seed, b.sz)
	if err != nil {
		return err
	}
	paths := map[string]string{}
	for _, name := range in.names {
		g := in.graphs[name]
		paths[name] = filepath.Join(b.work, name+".gsn")
		if err := tgraph.WriteSnapshotFile(paths[name], g); err != nil {
			return fmt.Errorf("write %s: %w", paths[name], err)
		}
		b.inputs[name+".vertices"] = int64(g.NumVertices())
		b.inputs[name+".edges"] = int64(g.NumEdges())
	}
	b.inputs["clients"] = queryClients
	b.inputs["hot_set"] = int64(len(in.names) * len(queryAlgos))
	in.graphs = nil // the served graphs are the mapped files from here on
	resetPeakRSS()
	if b.trace {
		return traceQueryMix(b, in, paths)
	}

	var qs *queryServer
	setup, err := timedSetup(b.sz.setupReps, func() error {
		var err error
		qs, err = openQueryServer(paths, in.names, newRecorder(false), 0, 0)
		return err
	}, func() { qs.close() })
	if err != nil {
		return err
	}
	defer func() { qs.close() }()
	b.setSetup(setup)

	out, err := newServedSet(filepath.Join(b.work, "replies"))
	if err != nil {
		return err
	}
	type clientOut struct {
		executed, hits latencies
		completed      int
		last           time.Time
	}
	outs := make([]clientOut, queryClients)
	clients := make([]*runClient, queryClients)
	for c := range clients {
		clients[c] = &runClient{c: newClient(), url: qs.lb.url + "/v1/run"}
	}
	// Warm-up: each client's first ops, untimed.
	var wg sync.WaitGroup
	for c := 0; c < queryClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := range in.clients[c][:b.sz.warmupOps] {
				_, _, err := clients[c].run(&in.clients[c][i], out)
				b.op(err)
			}
		}(c)
	}
	wg.Wait()

	// Each client sends its fixed number of requests; the deadline only
	// caps a run on a much slower host.
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(b.duration())
	for c := 0; c < queryClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			o := &outs[c]
			ops := in.clients[c][b.sz.warmupOps:]
			for i := range ops {
				if time.Now().After(deadline) {
					break
				}
				d, cached, err := clients[c].run(&ops[i], out)
				b.op(err)
				o.last = time.Now()
				if err != nil {
					continue
				}
				o.completed++
				if cached {
					o.hits.add(d)
				} else {
					o.executed.add(d)
				}
			}
		}(c)
	}
	wg.Wait()
	cpu := cpuTime() - cpu0
	var executed, hits latencies
	completed, last := 0, start
	for _, o := range outs {
		executed = append(executed, o.executed...)
		hits = append(hits, o.hits...)
		completed += o.completed
		if o.last.After(last) {
			last = o.last
		}
	}
	for _, c := range clients {
		c.c.CloseIdleConnections()
	}
	b.set("cpu_ms_per_op", ms(cpu)/float64(max(completed, 1)), "ms")
	b.name("run_p50_ms", executed.q(0.5), "ms", len(executed))
	b.name("run_p90_ms", executed.q(0.9), "ms", len(executed))
	b.name("hit_p50_ms", hits.q(0.5), "ms", len(hits))
	b.name("queries_per_s", ratio(float64(completed), last.Sub(start).Seconds()), "1/s", completed)
	b.inputs["requests"] = int64(completed)
	b.inputs["distinct_requests"] = int64(len(out.m))
	b.capped(completed < queryClients*b.sz.queryOps)

	// Output checks, after the timed section.
	qs.lb.close()
	qs.lb = nil
	byName := qs.byName(in.names)
	out.verify(b, func(r *serve.RunRequest) *tgraph.Graph { return byName[r.Graph] })
	return nil
}

// traceQueryMix replays the clients' op sequences interleaved, in order,
// through Server.Execute and the executor's own steps.
func traceQueryMix(b *bench, in *queryInputs, paths map[string]string) error {
	var ops []serve.RunRequest
	for i := 0; len(ops) < b.sz.traceOps && i < len(in.clients[0]); i++ {
		for c := 0; c < queryClients; c++ {
			ops = append(ops, in.clients[c][i])
		}
	}
	return tracePasses(b, len(ops), func(rec *recorder, budget time.Duration, limit int) (int, time.Duration, error) {
		root := rec.start(1, 0, "setup")
		qs, err := openQueryServer(paths, in.names, rec, 1, root)
		rec.end(root)
		if err != nil {
			return 0, 0, err
		}
		defer qs.close()
		srv, graphs := qs.lb.srv, qs.byName(in.names)
		ls := &layerStats{}
		start := time.Now()
		n := 0
		for ; n < limit && (budget == 0 || time.Since(start) < budget); n++ {
			r := &ops[n]
			op := n + 2
			root := rec.start(op, 0, "query")
			res, err := ls.execute(rec, op, root, srv, r, "serve.execute")
			if err == nil && !res.Cached {
				digest := digestLines(res.FormatLines(0))
				if _, err = ls.execute(rec, op, root, srv, r, "serve.hit_execute"); err == nil {
					err = ls.replayLayers(rec, op, root, graphs[r.Graph], r, digest)
				}
			}
			rec.end(root)
			b.op(err)
		}
		wall := time.Since(start)
		if rec.on {
			ls.publish(b)
			ls.publishCache(b, srv.Registry())
		}
		return n, wall, nil
	})
}
