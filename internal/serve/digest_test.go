package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"graphite/internal/algorithms"
	"graphite/internal/core"
	"graphite/internal/gen"
	"graphite/internal/tgraph"
)

// pinnedDigests are the sha256 of FormatResult over every vertex, followed
// by the run's message, scatter-call and compute-call counts, for each
// catalog algorithm on three generated graphs with 2 workers. They pin the
// exact values and counts a hot-path change must preserve: receivers fold
// float sums in arrival order, so even a reordered Scatter or Emit changes
// a PageRank digest.
var pinnedDigests = map[string]string{
	"mag/bfs":     "3f756534a9c55ef55256a20405b35a5914baec388034452f23af3ad5ce045cac",
	"mag/eat":     "00ba0883256e9001afa62dff137817afbd129a2464870d0f6c33ead9dccec90d",
	"mag/fast":    "a1adc778b2de799d28d30421fea48c399e05adf2cfda089f6177aa5fa4b35c47",
	"mag/lcc":     "b10ed2f438f842d01a2396d86d6d5ad55c28458d5c3a4de8615af4bca542dda6",
	"mag/ld":      "3174a925c899e8560403206e335091c8f73f389d9bb6408a5ac7c51411512c75",
	"mag/pr":      "4e1609d853e243e8f4cbc37af4b27d751b259d6aeb1ebbe19343f696c1852ebd",
	"mag/rh":      "d23f8cedf1a3bb6ebea4c6a6b04fe3992351a8626dc3ddf386d7dba16b072359",
	"mag/scc":     "bec007db8eb4657645b529abfd796eb0fb594801850f8c71a5082dc00708ede3",
	"mag/sssp":    "7afb0bc8622941128b7b97196ee0d780bc07839ff6327494391c8a39132f4261",
	"mag/tc":      "ac585f1de238874fb633f32be61b56b410986e38438f37c22760c6d3fac5d594",
	"mag/tmst":    "5413e2263757e7202c567a0cb9475402ef4d3e32ea1b384d08e6b39953984bd7",
	"mag/wcc":     "e2c90d6210845144b584713daea349c01301b990722722d98706e313fb6a84c7",
	"reddit/bfs":  "6ccf89e5cd5e80a79caabd56e96afc5e48b5a976471e2ac9207fceca32e64308",
	"reddit/eat":  "0c82a77e7ae8a0db38e2e9f19bc40879c0331b5d6be8a7d46d370ed134c09584",
	"reddit/fast": "0a588bc4c5bf7dd58f1a9252c93bc294e883bf373483addb535cfbc43f029ca7",
	"reddit/lcc":  "4ea20c88512111568d8be9ae62f70257cca571061d6bfe2cd5bd17cfabb37182",
	"reddit/ld":   "b3a2ac558304ff2dc44b2268c14ce45e2e4e0f6f1c6edddd82970622a838f03e",
	"reddit/pr":   "a80c2a1c5c27d48bc17d9de0b3eff458abfe91247562bbeb27087b75023a6496",
	"reddit/rh":   "bb6a17a18e587efa573c5760721bcf829234fccafdd435cfa37f35bf093251f4",
	"reddit/scc":  "7adc13b88207ec9b1d8d59cb1d0cb11b1d9f4fa6376acd1370766513d500dd01",
	"reddit/sssp": "0ad4be8eb9b165fd93410967d03a47655781987b68d90620f7521f4225b34e97",
	"reddit/tc":   "4dcfda113c26e0878e0c171fe0811bf1737e8ee57b8162d2cb4c11e9317f48e2",
	"reddit/tmst": "c3b0090dbb416e6bab14f8bb4fa369d93c50c520820888ad3d1bdfe1c68ad1c5",
	"reddit/wcc":  "74e11ba205d8cc3e05eb432db16cde9f2639036addbfbaa12dbe2d23ca57bd57",
	"skewed/bfs":  "92461b10f10f776e735daea97eb1b4c6a2bfd9eb9475b7d40ba22a60757d9010",
	"skewed/eat":  "8d5e78492d07465dc64e942949b36e77246724b8c715c46cf611dd1787244cb0",
	"skewed/fast": "c8247ae0c325c3b7db4d848dd07017e73ae56560074a2f7558f65ca1e6a39a90",
	"skewed/lcc":  "dfc333a8345faef37c7d725bf630703293d01d49339a7465c2e33551b292f576",
	"skewed/ld":   "e1462ca80d0adc4aa88f335edcdae78ef716607a200d95849ab9ed599de9071d",
	"skewed/pr":   "9966e22f8fc4f0e42e308a6dd7b72f51db4616e77a7757aa746d92e168e7a5a0",
	"skewed/rh":   "bf774f08f485f9f92f9336c7f6bcb51a474cc924c479879199afa333e7fefdbd",
	"skewed/scc":  "0fba1fc17b55be135799b759aa34fcf65286bb32e208b8ac2a26ecfe8ec2c4a7",
	"skewed/sssp": "04176c3929ad4e67df6c8963dbae0d0f8627479483cb605fc0ec8cad96fb5951",
	"skewed/tc":   "e11f575135b104357611ad546d3a26cb346d341deba255f1fc03930497b71e0d",
	"skewed/tmst": "42acd9b79d7d75d97fed79964d3bbe5eea592e692bbe3d8b229654d1a307c090",
	"skewed/wcc":  "de6f24648012667974e88f6f6c7c25e2ffc39e95edcc2dd88f0d886d4b61ca45",
}

// digestGraphs are the generated inputs of TestPinnedResultDigests, small
// enough that the whole matrix runs in a few seconds.
func digestGraphs() []gen.Profile {
	return []gen.Profile{gen.SkewedLike(0.25), gen.MAGLike(0.2), gen.RedditLike(0.2)}
}

// hubs returns the vertices with the most out-edges and the most in-edges,
// the traversal source and LD target of the digest runs, so the TD
// algorithms reach most of the graph.
func hubs(g *tgraph.Graph) (src, dst tgraph.VertexID) {
	bo, bi := -1, -1
	for i := 0; i < g.NumVertices(); i++ {
		if o := len(g.OutEdges(i)); o > bo {
			bo, src = o, g.VertexAt(i).ID
		}
		if n := len(g.InEdges(i)); n > bi {
			bi, dst = n, g.VertexAt(i).ID
		}
	}
	return src, dst
}

func TestPinnedResultDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests are pinned on amd64; other architectures may fuse float multiply-adds")
	}
	got := map[string]string{}
	for _, p := range digestGraphs() {
		g, err := gen.Generate(p, 1)
		if err != nil {
			t.Fatalf("generate %s: %v", p.Name, err)
		}
		src, dst := hubs(g)
		for _, name := range algorithms.Names() {
			prog, opts, err := algorithms.New(g, name, algorithms.Params{
				Source: src, Target: dst, StartTime: g.VertexAt(g.IndexOf(src)).Lifespan.Start,
			})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			opts.NumWorkers = 2
			r, err := core.Run(g, prog, opts)
			if err != nil {
				t.Fatalf("%s on %s: %v", name, p.Name, err)
			}
			h := sha256.New()
			h.Write([]byte(strings.Join(FormatResult(r, 0), "\n")))
			fmt.Fprintf(h, "\nmessages=%d scatter=%d compute=%d",
				r.Metrics.Messages, r.Metrics.ScatterCalls, r.Metrics.ComputeCalls)
			got[p.Name+"/"+name] = hex.EncodeToString(h.Sum(nil))
		}
	}
	for key, sum := range got {
		t.Logf("%q: %q,", key, sum)
		if want, ok := pinnedDigests[key]; !ok {
			t.Errorf("%s: no pinned digest", key)
		} else if sum != want {
			t.Errorf("%s: digest %s, pinned %s", key, sum, want)
		}
	}
	if len(got) != len(pinnedDigests) {
		t.Errorf("ran %d cells, %d pinned", len(got), len(pinnedDigests))
	}
}
