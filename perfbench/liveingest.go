package main

// live-ingest: writes beside reads on one live graph. The graph starts from
// a generated base stream held as a WAL plus a compacted snapshot, opened
// with CompactEvery on as graphite-serve -live-compact runs it. One client
// POSTs fixed-size, time-ordered event batches to /v1/graphs/live/events;
// the other runs seedable EAT and RH queries over windows that end at the
// last acked time (each extends the previous one, so the seed cache
// carries them) and over fixed historical windows (which later batches
// cannot touch, so the result cache keeps them).

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	ival "graphite/internal/interval"
	"graphite/internal/live"
	"graphite/internal/obs"
	"graphite/internal/serve"
	"graphite/internal/stream"
	"graphite/internal/tgraph"
)

const liveName = "live"

// liveTemplates is how many tail and how many historical requests the
// reader cycles through.
const liveTemplates = 8

// streamGen generates a growing temporal graph as a time-ordered event
// stream: each time unit adds vertices, adds weighted edges between random
// existing vertices, and sometimes removes an older edge. Vertices are never
// removed, so a vertex alive at t stays alive.
type streamGen struct {
	r            *rand.Rand
	t            int64
	nextV, nextE int64
	verts        []int64 // vertex ids, in order of addition
	born         []int64 // verts[i]'s addition time
	open         []int64 // edges not yet removed
	buf          []stream.Event
}

func newStreamGen(seed int64) *streamGen { return &streamGen{r: rand.New(rand.NewSource(seed))} }

func (s *streamGen) tick() {
	s.t++
	t := ival.Time(s.t)
	if len(s.open) > 0 && s.r.Intn(2) == 0 {
		i := s.r.Intn(len(s.open))
		s.buf = append(s.buf, stream.Event{Op: stream.RemoveEdge, T: t, E: tgraph.EdgeID(s.open[i])})
		s.open[i] = s.open[len(s.open)-1]
		s.open = s.open[:len(s.open)-1]
	}
	for i := 0; i < 2; i++ {
		s.buf = append(s.buf, stream.Event{Op: stream.AddVertex, T: t, V: tgraph.VertexID(s.nextV)})
		s.verts = append(s.verts, s.nextV)
		s.born = append(s.born, s.t)
		s.nextV++
	}
	for i := 0; i < 6; i++ {
		src := s.verts[s.r.Intn(len(s.verts))]
		dst := s.verts[s.r.Intn(len(s.verts))]
		if src == dst {
			continue
		}
		e := tgraph.EdgeID(s.nextE)
		s.nextE++
		s.buf = append(s.buf,
			stream.Event{Op: stream.AddEdge, T: t, E: e, Src: tgraph.VertexID(src), Dst: tgraph.VertexID(dst)},
			stream.Event{Op: stream.SetEdgeProp, T: t, E: e, Label: tgraph.PropTravelTime, Value: 1 + s.r.Int63n(3)},
			stream.Event{Op: stream.SetEdgeProp, T: t, E: e, Label: tgraph.PropTravelCost, Value: 1 + s.r.Int63n(9)})
		s.open = append(s.open, int64(e))
	}
}

// next returns the stream's next n events.
func (s *streamGen) next(n int) []stream.Event {
	for len(s.buf) < n {
		s.tick()
	}
	out := append([]stream.Event(nil), s.buf[:n]...)
	s.buf = append(s.buf[:0], s.buf[n:]...)
	return out
}

// readOp is one reader request. A tail op's window ends at the time of the
// last batch acked before it is sent; a historical op's window is fixed.
type readOp struct {
	req  serve.RunRequest
	tail bool
}

// liveInputs are the workload's seeded inputs: the base stream's batches,
// the batches the writer sends, the reader's op sequence, and the
// generator that continues the stream.
type liveInputs struct {
	base     [][]stream.Event
	baseLast int64
	batches  [][]stream.Event
	reads    []readOp
	gen      *streamGen
}

func planLiveIngest(seed int64, sz sizes) *liveInputs {
	// The base stream is liveBase events in CompactEvery-sized batches, each
	// of which compacts, then liveTail ordinary batches that stay in the WAL
	// for Open to replay.
	in := &liveInputs{gen: newStreamGen(seed)}
	for n := 0; n < sz.liveBase; n += sz.liveCompact {
		in.base = append(in.base, in.gen.next(sz.liveCompact))
	}
	for i := 0; i < sz.liveTail; i++ {
		in.base = append(in.base, in.gen.next(sz.liveBatch))
	}
	in.baseLast = in.gen.t
	for i := 0; i < sz.warmupOps+sz.liveBatches; i++ {
		in.batches = append(in.batches, in.gen.next(sz.liveBatch))
	}
	r := rand.New(rand.NewSource(seed + 1))
	// aliveAt picks a vertex added at or before t.
	aliveAt := func(t int64) int64 {
		n := 0
		for n < len(in.gen.born) && in.gen.born[n] <= t {
			n++
		}
		return in.gen.verts[r.Intn(n)]
	}
	// liveTemplates tail and as many historical requests, alternating EAT
	// and RH, with starts drawn from consecutive strata of the base
	// stream's first half. The reader alternates tail and historical ops
	// and cycles through each kind's requests in order, so the seed moves
	// only sources, starts and window ends, not the mix.
	half := max(in.baseLast/2, liveTemplates)
	var tails, hists []serve.RunRequest
	for k := int64(0); k < liveTemplates; k++ {
		algo := []string{"eat", "rh"}[k%2]
		stratum := func() int64 { return 1 + k*half/liveTemplates + r.Int63n(half/liveTemplates) }
		s := stratum()
		tails = append(tails, serve.RunRequest{Graph: liveName, Algorithm: algo,
			Params: map[string]int64{"source": aliveAt(s), "start": s}})
		a := stratum()
		b := a + 1 + r.Int63n(in.baseLast-a)
		hists = append(hists, serve.RunRequest{Graph: liveName, Algorithm: algo,
			Params: map[string]int64{"source": aliveAt(a), "start": a},
			Window: &serve.Window{Start: a, End: b}})
	}
	for i := 0; i < sz.warmupOps+sz.liveReads; i++ {
		if i%2 == 0 {
			in.reads = append(in.reads, readOp{req: tails[(i/2)%len(tails)], tail: true})
		} else {
			in.reads = append(in.reads, readOp{req: hists[(i/2)%len(hists)]})
		}
	}
	return in
}

// The writer and the reader follow one schedule. During warm-up they
// alternate, one batch then one read; in the timed section each client
// waits until the other has done its share of the ops before, in
// proportion to their fixed op counts. So every read sees the same graph
// whatever the two clients' speeds.

// need is how many batches are acked before read i is sent.
func (sz sizes) need(i int) int {
	if i < sz.warmupOps {
		return i + 1
	}
	return sz.warmupOps + (i-sz.warmupOps)*sz.liveBatches/sz.liveReads
}

// readsBefore is how many reads are done before batch j is sent.
func (sz sizes) readsBefore(j int) int {
	if j < sz.warmupOps {
		return j
	}
	return sz.warmupOps + (j-sz.warmupOps)*sz.liveReads/sz.liveBatches
}

// read returns read i's request, a tail window ending at the time of the
// last batch acked before it.
func (in *liveInputs) read(i int, sz sizes) serve.RunRequest {
	o := in.reads[i]
	r := o.req
	if o.tail {
		end := in.baseLast
		if n := sz.need(i); n > 0 {
			batch := in.batches[n-1]
			end = int64(batch[len(batch)-1].T)
		}
		r.Window = &serve.Window{Start: r.Params["start"], End: end}
	}
	return r
}

func liveIngestDigest(seed int64, sz sizes) (string, error) {
	in := planLiveIngest(seed, sz)
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, batch := range append(in.base, in.batches...) {
		if err := enc.Encode(serve.EncodeEvents(batch)); err != nil {
			return "", err
		}
	}
	for i := range in.reads {
		r := in.read(i, sz)
		io.WriteString(h, key(&r))
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// prepareLiveBase writes the base stream into a WAL with the workload's
// compaction setting, leaving a compacted snapshot plus a WAL tail.
func prepareLiveBase(in *liveInputs, sz sizes, walPath string) error {
	lg, err := live.Open(walPath, live.Options{Name: liveName, CompactEvery: sz.liveCompact, NoSync: true})
	if err != nil {
		return err
	}
	for i, batch := range in.base {
		if _, err := lg.Apply(batch); err != nil {
			lg.Close()
			return fmt.Errorf("base batch %d: %w", i, err)
		}
	}
	return lg.Close()
}

// liveServer is the system under test for live-ingest.
type liveServer struct {
	lg  *live.Graph
	srv *serve.Server
	lb  *loopback
}

// openLiveServer opens the live graph (snapshot plus WAL tail replay) and
// starts the server over it: the timed set-up.
func openLiveServer(walPath string, sz sizes, rec *recorder, op, root int, withHTTP bool) (*liveServer, error) {
	reg := obs.NewRegistry()
	ls := &liveServer{}
	var err error
	rec.call(op, root, "live.open", func() {
		ls.lg, err = live.Open(walPath, live.Options{Name: liveName, CompactEvery: sz.liveCompact, Registry: reg})
	})
	if err != nil {
		return nil, err
	}
	if ls.srv, err = serve.New(serve.Config{Live: map[string]*live.Graph{liveName: ls.lg}, Registry: reg}); err != nil {
		ls.lg.Close()
		return nil, err
	}
	if withHTTP {
		if ls.lb, err = listen(ls.srv); err != nil {
			ls.close()
			return nil, err
		}
	}
	return ls, nil
}

func (ls *liveServer) close() {
	if ls.lb != nil {
		ls.lb.close()
		ls.lb = nil
	}
	_ = ls.srv.Close()
	_ = ls.lg.Close()
}

// pacer keeps live-ingest's writer and reader on their schedule.
type pacer struct {
	mu          sync.Mutex
	cond        sync.Cond
	acked, read int
	stopped     bool
}

func newPacer(acked, read int) *pacer {
	p := &pacer{acked: acked, read: read}
	p.cond.L = &p.mu
	return p
}

// await blocks until ready holds or a client has stopped; it reports
// whether ready holds.
func (p *pacer) await(ready func() bool) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for !ready() && !p.stopped {
		p.cond.Wait()
	}
	return ready()
}

// update applies f under the lock and wakes the other client.
func (p *pacer) update(f func()) {
	p.mu.Lock()
	f()
	p.mu.Unlock()
	p.cond.Broadcast()
}

func runLiveIngest(b *bench) error {
	in := planLiveIngest(b.seed, b.sz)
	walPath := filepath.Join(b.work, "live.wal")
	if err := prepareLiveBase(in, b.sz, walPath); err != nil {
		return fmt.Errorf("prepare base: %w", err)
	}
	b.inputs["batch_events"] = int64(b.sz.liveBatch)
	b.inputs["compact_every"] = int64(b.sz.liveCompact)
	b.inputs["base_batches"] = int64(len(in.base))
	resetPeakRSS()
	if b.trace {
		return traceLiveIngest(b, in, walPath)
	}

	var ls *liveServer
	setup, err := timedSetup(b.sz.setupReps, func() error {
		var err error
		ls, err = openLiveServer(walPath, b.sz, newRecorder(false), 0, 0, true)
		return err
	}, func() { ls.close() })
	if err != nil {
		return err
	}
	defer func() {
		if ls != nil {
			ls.close()
		}
	}()
	b.setSetup(setup)
	base := ls.lg.Info()
	b.inputs["base_events"] = int64(base.Events)
	b.inputs["base_vertices"] = int64(base.Vertices)
	b.inputs["base_edges"] = int64(base.Edges)

	out, err := newServedSet(filepath.Join(b.work, "replies"))
	if err != nil {
		return err
	}
	var (
		acked   int64
		acks    latencies
		runs    latencies
		reads   int
		lastAck time.Time
	)
	writer := newClient()
	reader := &runClient{c: newClient(), url: ls.lb.url + "/v1/run"}
	eventsURL := ls.lb.url + "/v1/graphs/" + liveName + "/events"
	// ingest sends batch j; the reply must count every acked event and end
	// at the batch's last event.
	ingest := func(j int) (time.Duration, error) {
		batch := in.batches[j]
		body, err := json.Marshal(serve.EventsRequest{Events: serve.EncodeEvents(batch)})
		if err != nil {
			return 0, err
		}
		start := time.Now()
		data, err := post(writer, eventsURL, body)
		d := time.Since(start)
		if err != nil {
			return d, err
		}
		var res serve.EventsResult
		if err := json.Unmarshal(data, &res); err != nil {
			return d, fmt.Errorf("decode events reply: %w", err)
		}
		acked += int64(len(batch))
		if want := int64(base.Events) + acked; int64(res.Events) != want || res.LastTime != int64(batch[len(batch)-1].T) {
			return d, fmt.Errorf("batch %d acked at %d events, last time %d; want %d, %d",
				j, res.Events, res.LastTime, want, batch[len(batch)-1].T)
		}
		return d, nil
	}
	read := func(i int) (time.Duration, bool, error) {
		r := in.read(i, b.sz)
		return reader.run(&r, out)
	}
	// Warm-up, untimed.
	for i := 0; i < b.sz.warmupOps; i++ {
		_, err := ingest(i)
		b.op(err)
		_, _, err = read(i)
		b.op(err)
	}
	warmAcked := acked

	// Each client runs its fixed number of ops on the schedule; the
	// deadline only caps a run on a much slower host.
	p := newPacer(b.sz.warmupOps, b.sz.warmupOps)
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(b.duration())
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer p.update(func() { p.stopped = true })
		for j := b.sz.warmupOps; j < len(in.batches); j++ {
			if time.Now().After(deadline) || !p.await(func() bool { return p.read >= b.sz.readsBefore(j) }) {
				return
			}
			d, err := ingest(j)
			b.op(err)
			if err == nil {
				acks.add(d)
				lastAck = time.Now()
			}
			p.update(func() { p.acked++ })
		}
	}()
	go func() {
		defer wg.Done()
		defer p.update(func() { p.stopped = true })
		for i := b.sz.warmupOps; i < len(in.reads); i++ {
			if time.Now().After(deadline) || !p.await(func() bool { return p.acked >= b.sz.need(i) }) {
				return
			}
			d, cached, err := read(i)
			b.op(err)
			if err == nil {
				reads++
				if !cached {
					runs.add(d)
				}
			}
			p.update(func() { p.read++ })
		}
	}()
	wg.Wait()
	elapsed := time.Since(start)
	cpu := cpuTime() - cpu0
	writer.CloseIdleConnections()
	reader.c.CloseIdleConnections()
	b.set("cpu_ms_per_op", ms(cpu)/float64(max(len(acks)+reads, 1)), "ms")
	b.name("ingest_events_per_s", ratio(float64(acked-warmAcked), lastAck.Sub(start).Seconds()), "1/s", len(acks))
	b.name("ack_p50_ms", acks.q(0.5), "ms", len(acks))
	b.name("ack_p90_ms", acks.q(0.9), "ms", len(acks))
	b.name("run_p50_ms", runs.q(0.5), "ms", len(runs))
	b.name("run_p90_ms", runs.q(0.9), "ms", len(runs))
	b.name("queries_per_s", ratio(float64(reads), elapsed.Seconds()), "1/s", reads)
	b.inputs["acked_events"] = acked
	b.inputs["acked_batches"] = int64(len(acks)) + int64(b.sz.warmupOps)
	b.inputs["reader_requests"] = int64(reads)
	b.inputs["distinct_requests"] = int64(len(out.m))
	b.capped(len(acks) < b.sz.liveBatches || reads < b.sz.liveReads)

	// Output checks, after the timed section: the reopened WAL must hold
	// exactly the last acked epoch, and every reader reply must equal a cold
	// run over the final graph sliced to its window.
	ls.lb.close()
	ls.lb = nil
	ep := ls.lg.Acquire()
	defer ep.Release()
	want, wantEvents := ep.Graph(), int(base.Events)+int(acked)
	ls.close()
	ls = nil
	if b.corrupt == "wal" {
		// A batch that was never acked lands in the log: the next planned
		// one, or one past the plan when the writer sent every batch.
		next := b.sz.warmupOps + len(acks)
		batch := in.gen.next(b.sz.liveBatch)
		if next < len(in.batches) {
			batch = in.batches[next]
		}
		if err := appendUnacked(walPath, batch); err != nil {
			return err
		}
	}
	final, err := live.Open(walPath, live.Options{Name: liveName})
	if err != nil {
		return fmt.Errorf("reopen WAL: %w", err)
	}
	defer final.Close()
	fep := final.Acquire()
	defer fep.Release()
	got := fep.Graph()
	b.inputs["final_vertices"] = int64(got.NumVertices())
	b.inputs["final_edges"] = int64(got.NumEdges())
	if err := tgraph.Equal(got, want); err != nil {
		b.op(fmt.Errorf("check: reopened WAL differs from the last acked epoch: %v", err))
	} else {
		b.op(nil)
	}
	if fep.Events() != wantEvents {
		b.op(fmt.Errorf("check: reopened WAL holds %d events, acked %d", fep.Events(), wantEvents))
	} else {
		b.op(nil)
	}
	out.verify(b, func(*serve.RunRequest) *tgraph.Graph { return got })
	return nil
}

// traceLiveIngest replays the writer's batches and the reader's ops in
// schedule order: each batch through DecodeEvents and Apply on the
// server's live graph, each read through AcquireEffective, Server.Execute
// and, when executed, the executor's own steps.
func traceLiveIngest(b *bench, in *liveInputs, walPath string) error {
	wire := make([][]serve.EventWire, len(in.batches))
	for i, batch := range in.batches {
		wire[i] = serve.EncodeEvents(batch)
	}
	return tracePasses(b, min(b.sz.traceOps, len(in.reads)), func(rec *recorder, budget time.Duration, limit int) (int, time.Duration, error) {
		// Each pass starts from a private copy of the base WAL and snapshot.
		dir, err := os.MkdirTemp(b.work, "pass-")
		if err != nil {
			return 0, 0, err
		}
		defer os.RemoveAll(dir)
		wal := filepath.Join(dir, "live.wal")
		for _, p := range []string{walPath, live.SnapshotPath(walPath)} {
			if err := copyFile(p, filepath.Join(dir, filepath.Base(p))); err != nil {
				return 0, 0, err
			}
		}
		op := 1
		root := rec.start(op, 0, "setup")
		lsv, err := openLiveServer(wal, b.sz, rec, op, root, false)
		rec.end(root)
		if err != nil {
			return 0, 0, err
		}
		defer lsv.close()
		lg, srv := lsv.lg, lsv.srv
		st := &layerStats{}
		var walBytes, walEvents int64
		applied := 0
		start := time.Now()
		n := 0
		for ; n < limit && (budget == 0 || time.Since(start) < budget); n++ {
			for ; applied < b.sz.need(n); applied++ {
				before := fileSize(wal)
				op++
				root := rec.start(op, 0, "ingest")
				var batch []stream.Event
				rec.call(op, root, "stream.decode", func() { batch, err = serve.DecodeEvents(wire[applied]) })
				if err == nil {
					rec.call(op, root, "live.apply", func() { _, err = lg.Apply(batch) })
				}
				rec.end(root)
				b.op(err)
				if after := fileSize(wal); after > before {
					walBytes += after - before
					walEvents += int64(len(batch))
				}
			}

			r := in.read(n, b.sz)
			op++
			root := rec.start(op, 0, "read")
			var ep *live.Epoch
			rec.call(op, root, "live.acquire", func() { ep, _ = lg.AcquireEffective(window(&r)) })
			res, err := st.execute(rec, op, root, srv, &r, "serve.execute")
			if err == nil && !res.Cached {
				digest := digestLines(res.FormatLines(0))
				if _, err = st.execute(rec, op, root, srv, &r, "serve.hit_execute"); err == nil {
					err = st.replayLayers(rec, op, root, ep.Graph(), &r, digest)
				}
			}
			ep.Release()
			rec.end(root)
			b.op(err)
		}
		wall := time.Since(start)
		op++
		root = rec.start(op, 0, "compact")
		rec.call(op, root, "live.compact", func() { _, err = lg.Compact() })
		rec.end(root)
		b.op(err)
		if rec.on {
			st.publish(b)
			st.publishCache(b, srv.Registry())
			reg := srv.Registry()
			b.set("serve.seed_hit_ratio", ratio(float64(reg.Counter(serve.CSeedHits).Load()),
				float64(reg.Counter(serve.CRunsExecuted).Load())), "ratio")
			b.set("live.wal_bytes_per_event", ratio(float64(walBytes), float64(walEvents)), "bytes")
		}
		return n, wall, nil
	})
}

// appendUnacked writes one more batch into the closed live graph's log.
func appendUnacked(walPath string, batch []stream.Event) error {
	lg, err := live.Open(walPath, live.Options{Name: liveName})
	if err != nil {
		return err
	}
	if _, err := lg.Apply(batch); err != nil {
		lg.Close()
		return err
	}
	return lg.Close()
}

func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}

func copyFile(src, dst string) error {
	data, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, data, 0o644)
}
