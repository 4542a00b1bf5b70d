//go:build linux

package cluster_test

import (
	"context"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"graphite/internal/algorithms"
	"graphite/internal/cluster"
	"graphite/internal/tgraph"
)

// gsnMappings counts this process's mappings of files under dir whose
// names end in suffix.
func gsnMappings(t *testing.T, dir, suffix string) int {
	t.Helper()
	data, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, line := range strings.Split(string(data), "\n") {
		if strings.Contains(line, dir) && strings.HasSuffix(line, suffix) {
			n++
		}
	}
	return n
}

// runPartitionedJob runs one PageRank job over the partition directory and
// returns once the coordinator and every worker have finished, keeping no
// reference to the coordinator or its result. It reports how many worker
// partitions were still mapped while the result was held.
func runPartitionedJob(t *testing.T, partDir string) (heldParts int) {
	t.Helper()
	coord, err := cluster.New(cluster.Config{Workers: testWorkers, Graph: "shard:" + partDir,
		Algo: "pr", Params: algorithms.Params{Iterations: 3}})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for _, dir := range workerDirs(t, testWorkers) {
		wg.Add(1)
		go func(dir string) {
			defer wg.Done()
			if err := cluster.RunWorker(ctx, cluster.WorkerConfig{Addr: ln.Addr().String(), Dir: dir}); err != nil {
				t.Errorf("worker: %v", err)
			}
		}(dir)
	}
	res, err := coord.Serve(ln)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	heldParts = gsnMappings(t, partDir, ".gsn") - gsnMappings(t, partDir, tgraph.PartitionFullName)
	runtime.KeepAlive(res)
	return heldParts
}

// TestClusterJobsUnmapGraphs pins that in-process jobs leave no graph
// mapped behind: each worker unmaps its partition when RunWorker returns,
// and the coordinator's full copy goes once its result is unreachable.
func TestClusterJobsUnmapGraphs(t *testing.T) {
	partDir, _ := writeTransitPartitions(t)
	before := gsnMappings(t, partDir, ".gsn")
	for job := 0; job < 3; job++ {
		if held := runPartitionedJob(t, partDir); held != 0 {
			t.Fatalf("job %d: %d worker partitions still mapped after the workers returned", job, held)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		n := gsnMappings(t, partDir, ".gsn")
		if n == before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d mappings of %s remain after 3 jobs, want %d", n, partDir, before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
