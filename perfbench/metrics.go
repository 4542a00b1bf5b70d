package main

import (
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, emitted by every workload.
// cpu_ms_per_op is the process's CPU time over the measured section divided
// by the client ops completed in it: /v1/run replies (query-mix), acked
// event batches plus reader replies (live-ingest). Jobs (cluster-pagerank)
// run one at a time, so there it is the median CPU time of one job, from
// cluster.New to the removal of its checkpoints. The clients run in the same process, so it includes
// their share: encoding each request, reading each reply, hashing its
// vertices and writing a reply not seen before to a file. Replies are
// decoded and checked only after the measured section. CPU time, unlike
// wall time, does not grow while the hypervisor runs other guests, so it
// stays steady on a shared host; the wall-clock latencies and rates are
// printed in the report beside it.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run. Every workload emits all of
// them; a layer the workload does not exercise reads 0. Times are medians
// per call of the layer's self time; counts are means per executed run or
// per job.
var perLayer = []metricDef{
	{"tgraph.open_ms", "ms"},
	{"tgraph.slice_ms", "ms"},
	{"algorithms.new_ms", "ms"},
	{"core.run_ms", "ms"},
	{"engine.compute_ms", "ms"},
	{"engine.messaging_ms", "ms"},
	{"engine.barrier_ms", "ms"},
	{"engine.supersteps", "count"},
	{"engine.messages", "count"},
	{"engine.message_bytes", "bytes"},
	{"icm.compute_calls", "count"},
	{"icm.scatter_calls", "count"},
	{"icm.warp_calls", "count"},
	{"icm.warp_suppressed_ratio", "ratio"},
	{"engine.pool_hit_ratio", "ratio"},
	{"serve.execute_ms", "ms"},
	{"serve.hit_execute_ms", "ms"},
	{"serve.encode_ms", "ms"},
	{"serve.format_ms", "ms"},
	{"serve.response_bytes", "bytes"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.seed_hit_ratio", "ratio"},
	{"stream.decode_ms", "ms"},
	{"live.apply_ms", "ms"},
	{"live.compact_ms", "ms"},
	{"live.acquire_ms", "ms"},
	{"live.open_ms", "ms"},
	{"live.wal_bytes_per_event", "bytes"},
	{"cluster.compute_ms", "ms"},
	{"cluster.wait_ms", "ms"},
	{"cluster.deliver_ms", "ms"},
	{"cluster.peer_send_ms", "ms"},
	{"cluster.peer_recv_ms", "ms"},
	{"cluster.step_skew_milli", "milli"},
	{"cluster.assemble_ms", "ms"},
	{"cluster.direct_bytes", "bytes"},
	{"cluster.relay_bytes", "bytes"},
	{"cluster.checkpoints", "count"},
	{"trace.ops", "count"},
	{"trace.spans", "count"},
	{"trace.overhead_ratio", "ratio"},
}

// env is the environment stamp of every report.
type env struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
}

func stampEnv(seed int64) env {
	return env{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		Commit:     commit(),
		Seed:       seed,
	}
}

// commit names the checked-out revision from PERFBENCH_COMMIT, which
// run.sh sets from git when the checkout is a repository.
func commit() string {
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

// resetPeakRSS returns freed heap to the OS and restarts the kernel's
// resident-memory high-water mark, so peak_rss_mb covers set-up and the
// measured run rather than input generation. Where the kernel offers no
// reset the mark simply keeps counting from process start.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's resident-memory high-water mark.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// cpuTime is the process's user plus system CPU time so far. Unlike wall
// time it does not grow while the hypervisor runs other guests.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is sorted in place. An empty sample reads 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// latencies collects one timed path's samples in milliseconds.
type latencies []float64

func (l *latencies) add(d time.Duration) { *l = append(*l, ms(d)) }

func (l latencies) q(q float64) float64 { return quantile(append([]float64(nil), l...), q) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// setupTime is a run's set-up cost in seconds: the median over its samples
// of the process CPU time and of the wall time one set-up took.
type setupTime struct {
	cpu, wall float64
	setups    int
}

// minSetupSample is the least CPU time one set-up sample spans. The kernel
// may account CPU time in scheduler ticks of several milliseconds, so a
// shorter set-up is timed over several consecutive repetitions.
const minSetupSample = 100 * time.Millisecond

// timedSetup times samples samples of set-up, after one calibrating set-up
// that fixes how many consecutive set-ups each sample spans, and returns
// the median times per set-up. Every set-up but the last is torn down.
func timedSetup(samples int, setup func() error, teardown func()) (setupTime, error) {
	var st setupTime
	var walls, cpus []float64
	per := 1
	for i := 0; i <= max(samples, 1); i++ {
		runtime.GC() // each sample starts from a collected heap
		start, cpu0 := time.Now(), cpuTime()
		for j := 0; j < per; j++ {
			if err := setup(); err != nil {
				return st, err
			}
			st.setups++
			if i < max(samples, 1) || j < per-1 {
				teardown()
			}
		}
		wall, cpu := time.Since(start), cpuTime()-cpu0
		if i == 0 {
			per = int(minSetupSample/max(wall, time.Millisecond)) + 1
			continue
		}
		walls = append(walls, wall.Seconds()/float64(per))
		cpus = append(cpus, cpu.Seconds()/float64(per))
	}
	st.cpu, st.wall = median(cpus), median(walls)
	return st, nil
}

// setSetup publishes a run's set-up cost. setup_s is CPU time, which the
// hypervisor's steal does not inflate; the wall time is reported beside it.
func (b *bench) setSetup(st setupTime) {
	b.set("setup_s", st.cpu, "s")
	b.name("setup_s", st.cpu, "s", st.setups)
	b.name("setup_wall_s", st.wall, "s", st.setups)
}
