package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"graphite/internal/serve"
	"graphite/internal/tgraph"
)

// runClient is one closed-loop /v1/run client.
type runClient struct {
	c   *http.Client
	url string
}

// run sends one request and records its reply for the output check; the
// returned latency covers send to last byte received. The reply is not
// decoded here, so the timed section pays only for reading it and hashing
// its vertices; the check decodes each distinct reply after timing.
func (hc *runClient) run(r *serve.RunRequest, out *servedSet) (time.Duration, bool, error) {
	body, err := json.Marshal(r)
	if err != nil {
		return 0, false, err
	}
	start := time.Now()
	data, err := post(hc.c, hc.url, body)
	d := time.Since(start)
	if err != nil {
		return d, false, err
	}
	cached, vertices := splitReply(data)
	return d, cached, out.add(r, string(body), data, vertices)
}

// splitReply reads a /v1/run reply's cached flag and finds its vertices
// section without decoding the body. Both are top-level fields; "vertices"
// comes last and no vertex holds a key of that name, so the first match is
// the field. A body without it is hashed whole.
func splitReply(body []byte) (cached bool, vertices []byte) {
	head, vertices := body, body
	if i := bytes.Index(body, []byte(`"vertices"`)); i >= 0 {
		head, vertices = body[:i], body[i:]
	}
	if i := bytes.Index(head, []byte(`"cached":`)); i >= 0 {
		cached = bytes.HasPrefix(bytes.TrimLeft(head[i+len(`"cached":`):], " \t\r\n"), []byte("true"))
	}
	return cached, vertices
}

// served is every distinct reply one distinct request received: the file
// holding the first body with each vertices hash, and how many replies
// carried it.
type served struct {
	req    *serve.RunRequest
	bodies map[uint64]string
	count  map[uint64]int
}

// servedSet keeps the distinct replies of a run in files under dir, so
// holding them adds nothing to the process's resident memory.
type servedSet struct {
	dir  string
	seed maphash.Seed
	mu   sync.Mutex
	n    int
	m    map[string]*served
}

func newServedSet(dir string) (*servedSet, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &servedSet{dir: dir, seed: maphash.MakeSeed(), m: map[string]*served{}}, nil
}

// add records one reply to the request whose wire form is k; a reply whose
// vertices were not seen before for that request is written to a file.
func (s *servedSet) add(r *serve.RunRequest, k string, body, vertices []byte) error {
	h := maphash.Bytes(s.seed, vertices)
	s.mu.Lock()
	e := s.m[k]
	if e == nil {
		e = &served{req: r, bodies: map[uint64]string{}, count: map[uint64]int{}}
		s.m[k] = e
	}
	e.count[h]++
	if _, ok := e.bodies[h]; ok {
		s.mu.Unlock()
		return nil
	}
	s.n++
	path := filepath.Join(s.dir, fmt.Sprintf("%d.json", s.n))
	e.bodies[h] = path
	s.mu.Unlock()
	return os.WriteFile(path, body, 0o644)
}

// corruptOne adds a vertex to one stored reply, for the checks' own tests.
func (s *servedSet) corruptOne() error {
	for _, e := range s.m {
		for _, path := range e.bodies {
			res, err := readReply(path)
			if err != nil {
				return err
			}
			res.Vertices = append(res.Vertices, serve.VertexResult{ID: 1 << 40})
			data, err := json.Marshal(res)
			if err != nil {
				return err
			}
			return os.WriteFile(path, data, 0o644)
		}
	}
	return nil
}

func readReply(path string) (*serve.RunResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var res serve.RunResult
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("decode /v1/run reply: %w", err)
	}
	return &res, nil
}

// verify recomputes every distinct request cold and requires each of its
// distinct replies to render identically. The recomputations run on one
// worker each, one per CPU; worker count never changes a result.
func (s *servedSet) verify(b *bench, graphOf func(r *serve.RunRequest) *tgraph.Graph) {
	if b.corrupt == "results" {
		if err := s.corruptOne(); err != nil {
			b.op(err)
		}
	}
	todo := make(chan *served)
	var wg sync.WaitGroup
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for e := range todo {
				b.op(e.verify(graphOf(e.req)))
			}
		}()
	}
	for _, e := range s.m {
		todo <- e
	}
	close(todo)
	wg.Wait()
}

func (e *served) verify(g *tgraph.Graph) error {
	_, want, err := runDirect(newRecorder(false), 0, 0, g, e.req, 1, nil)
	if err != nil {
		return err
	}
	for h, path := range e.bodies {
		res, err := readReply(path)
		if err != nil {
			return err
		}
		if digestLines(res.FormatLines(0)) != want {
			return fmt.Errorf("check: %d replies to %s differ from a direct core.Run", e.count[h], key(e.req))
		}
	}
	return nil
}
