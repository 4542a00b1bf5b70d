package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"graphite/internal/algorithms"
	"graphite/internal/core"
	ival "graphite/internal/interval"
	"graphite/internal/obs"
	"graphite/internal/serve"
	"graphite/internal/tgraph"
)

// loopback is a serve.Server behind an HTTP listener on 127.0.0.1, the way
// graphite-serve exposes it.
type loopback struct {
	srv  *serve.Server
	hs   *http.Server
	url  string
	done chan struct{}
}

func listen(srv *serve.Server) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	lb := &loopback{srv: srv, hs: &http.Server{Handler: srv.Handler()},
		url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(lb.done)
		_ = lb.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return lb, nil
}

// close stops the listener and the server and waits for both.
func (lb *loopback) close() {
	_ = lb.hs.Close()
	<-lb.done
	_ = lb.srv.Close()
}

// newClient returns one closed-loop client: a single keep-alive connection.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// post sends a JSON body and returns the reply body; a non-2xx status is an
// error carrying the server's message.
func post(c *http.Client, url string, body []byte) ([]byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("POST %s: HTTP %d: %s", url, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

// digestLines hashes a rendered result, one line per vertex.
func digestLines(lines []string) string {
	h := sha256.New()
	for _, l := range lines {
		io.WriteString(h, l)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// encodeLikeHandler JSON-encodes v exactly as the HTTP handlers do.
func encodeLikeHandler(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	return buf.Bytes(), err
}

// window returns a request's time window (the whole lifetime when unset).
func window(r *serve.RunRequest) ival.Interval {
	if r.Window == nil {
		return ival.Universe
	}
	return ival.New(ival.Time(r.Window.Start), ival.Time(r.Window.End))
}

// params resolves a request's parameters the way the server does: target
// defaults to source, iterations to the catalog default.
func params(r *serve.RunRequest) algorithms.Params {
	p := algorithms.Params{
		Source:     tgraph.VertexID(r.Params["source"]),
		Target:     tgraph.VertexID(r.Params["source"]),
		StartTime:  ival.Time(r.Params["start"]),
		Deadline:   ival.Time(r.Params["deadline"]),
		Iterations: int(r.Params["iterations"]),
	}
	if t, ok := r.Params["target"]; ok {
		p.Target = tgraph.VertexID(t)
	}
	return p
}

// key is a request's wire form, which identifies it.
func key(r *serve.RunRequest) string {
	b, _ := json.Marshal(r)
	return string(b)
}

// layerStats accumulates what the traced replays read from each executed
// run's result and private registry.
type layerStats struct {
	runs                                  int
	compute, messaging, barrier           []float64
	supersteps, messages, msgBytes        int64
	computeCalls, scatterCalls, warpCalls int64
	warpSuppressed, poolHits, poolMisses  int64
	responseBytes                         []float64
	hitExecutes                           int64
}

// runDirect answers a request without the server, through the steps of the
// server's executor — tgraph.Slice to the window, algorithms.New, core.Run,
// serve.FormatResult — each under a span of op when rec records. workers
// sets the BSP worker count (0: the catalog default) and reg, when set,
// receives the run's metrics. It returns the result and the digest of its
// rendering.
func runDirect(rec *recorder, op, root int, g *tgraph.Graph, r *serve.RunRequest, workers int, reg *obs.Registry) (*core.Result, string, error) {
	var err error
	if w := window(r); w != ival.Universe {
		rec.call(op, root, "tgraph.slice", func() { g, err = tgraph.Slice(g, w) })
		if err != nil {
			return nil, "", fmt.Errorf("slice %v: %w", w, err)
		}
	}
	var prog core.Program
	var opts core.Options
	rec.call(op, root, "algorithms.new", func() { prog, opts, err = algorithms.New(g, r.Algorithm, params(r)) })
	if err != nil {
		return nil, "", err
	}
	if workers > 0 {
		opts.NumWorkers = workers
	}
	opts.Registry = reg
	var res *core.Result
	rec.call(op, root, "core.run", func() { res, err = core.Run(g, prog, opts) })
	if err != nil {
		return nil, "", err
	}
	var lines []string
	rec.call(op, root, "serve.format", func() { lines = serve.FormatResult(res, 0) })
	return res, digestLines(lines), nil
}

// replayLayers re-runs one executed request layer by layer under the op's
// root span, reads its metrics, and checks the replay renders like the
// served result.
func (ls *layerStats) replayLayers(rec *recorder, op, root int, g *tgraph.Graph, r *serve.RunRequest, served string) error {
	reg := obs.NewRegistry()
	res, digest, err := runDirect(rec, op, root, g, r, 0, reg)
	if err != nil {
		return err
	}
	m := res.Metrics
	ls.runs++
	ls.compute = append(ls.compute, ms(m.ComputePlusTime))
	ls.messaging = append(ls.messaging, ms(m.MessagingTime))
	ls.barrier = append(ls.barrier, ms(m.BarrierTime))
	ls.supersteps += int64(m.Supersteps)
	ls.messages += m.Messages
	ls.msgBytes += m.MessageBytes
	ls.computeCalls += m.ComputeCalls
	ls.scatterCalls += m.ScatterCalls
	ls.warpCalls += res.Stats.WarpCalls
	ls.warpSuppressed += res.Stats.WarpSuppressed
	ls.poolHits += reg.Gauge(obs.GPoolHits).Load()
	ls.poolMisses += reg.Gauge(obs.GPoolMisses).Load()
	if digest != served {
		return fmt.Errorf("layer replay of %s differs from the served result", key(r))
	}
	return nil
}

// execute runs one request in-process through Server.Execute and encodes
// the reply the way the handler does, each under its own span. name is
// "serve.execute", or "serve.hit_execute" for the repeat that must hit the
// cache.
func (ls *layerStats) execute(rec *recorder, op, root int, srv *serve.Server, r *serve.RunRequest, name string) (*serve.RunResult, error) {
	var res *serve.RunResult
	var err error
	rec.call(op, root, name, func() { res, err = srv.Execute(context.Background(), r) })
	if err != nil {
		return nil, err
	}
	if name == "serve.hit_execute" {
		ls.hitExecutes++
		if !res.Cached {
			return nil, fmt.Errorf("repeat of %s missed the cache", key(r))
		}
	}
	var body []byte
	rec.call(op, root, "serve.encode", func() { body, err = encodeLikeHandler(res) })
	ls.responseBytes = append(ls.responseBytes, float64(len(body)))
	return res, err
}

// publishCache sets the cache hit ratio from the server's counters, less
// the replay's own deliberate repeats.
func (ls *layerStats) publishCache(b *bench, reg *obs.Registry) {
	hits := float64(reg.Counter(serve.CCacheHits).Load() - ls.hitExecutes)
	b.set("serve.cache_hit_ratio", ratio(hits, hits+float64(reg.Counter(serve.CCacheMisses).Load())), "ratio")
}

// publish sets the engine, ICM and serve metrics the replays gathered.
func (ls *layerStats) publish(b *bench) {
	n := float64(max(ls.runs, 1))
	b.set("engine.compute_ms", median(ls.compute), "ms")
	b.set("engine.messaging_ms", median(ls.messaging), "ms")
	b.set("engine.barrier_ms", median(ls.barrier), "ms")
	b.set("engine.supersteps", float64(ls.supersteps)/n, "count")
	b.set("engine.messages", float64(ls.messages)/n, "count")
	b.set("engine.message_bytes", float64(ls.msgBytes)/n, "bytes")
	b.set("icm.compute_calls", float64(ls.computeCalls)/n, "count")
	b.set("icm.scatter_calls", float64(ls.scatterCalls)/n, "count")
	b.set("icm.warp_calls", float64(ls.warpCalls)/n, "count")
	b.set("icm.warp_suppressed_ratio", ratio(float64(ls.warpSuppressed), float64(ls.warpCalls+ls.warpSuppressed)), "ratio")
	b.set("engine.pool_hit_ratio", ratio(float64(ls.poolHits), float64(ls.poolHits+ls.poolMisses)), "ratio")
	b.set("serve.response_bytes", median(ls.responseBytes), "bytes")
}
