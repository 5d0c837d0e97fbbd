// Command perfbench is the repository's benchmark. It drives three seeded
// workloads through the library's public entry points and checks every
// verdict against the workload's model:
//
//   - sessions: an in-process manager on all p: (call(p) - perform(p))*
//     holding 512 live sessions; the state engine does almost all the
//     work.
//   - clinic: the paper's Fig 7 coupling served by a gateway over two
//     replicated loopback shards; two-phase grants, follower reads and
//     synchronous replication.
//   - durable: one manager on (submit | approve | exec)* over the binary
//     wire with fsynced, group-committed segmented storage; a closed
//     loop for throughput, then an open loop for latency.
//
// Usage:
//
//	bash perfbench/run.sh --workload sessions|clinic|durable|all --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// the workload untraced and traced, then replays the traced run's action
// sequence down the layer ladder, and prints the per-layer metrics. The
// last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. A correctness failure
// exits with status 1.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/expr"
)

// e2eMetrics and layerMetrics are the metrics the result line carries
// in each mode, as BENCHMARK.json lists them; everything else is printed
// for the reader only.
var (
	e2eMetrics = []string{"setup_s", "throughput_ops_s", "request_p50_us",
		"try_p50_us", "recovery_s", "heap_live_mb"}
	layerMetrics = []string{
		"state.try_ns", "state.step_ns", "state.allocs_per_step", "state.size",
		"manager.request_ns", "manager.self_ns", "manager.batch_size",
		"storage.commit_p50_ns", "storage.commit_p99_ns", "storage.syncs_per_op",
		"storage.checkpoint_ns", "storage.bytes_per_action", "storage.replay_ns_per_action",
		"manager.net.request_ns", "manager.net.self_ns", "manager.net.bytes_per_op",
		"manager.net.writes_per_op", "manager.net.goroutines_peak",
		"cluster.single_ns",
		"manager.replica.ack_ns", "manager.replica.frames_per_commit", "manager.replica.apply_ns",
		"process.allocs_per_op", "process.gc_cpu_fraction", "harness.trace_overhead",
		"request_p99_us",
	}
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects one run's metrics and failures and prints them.
type report struct {
	prefix string // workload name, when several run in one process
	res    result
}

func newReport() *report {
	return &report{res: result{Correct: true, Metrics: make(map[string]metric)}}
}

// set records a metric and prints it with its unit and, for a
// percentile, its sample count.
func (r *report) set(name string, v float64, unit string, note string) {
	if note != "" {
		note = "  (" + note + ")"
	}
	fmt.Printf("%-34s %14.6g %-6s%s\n", r.prefix+name, v, unit, note)
	r.res.Metrics[r.prefix+name] = metric{Value: v, Unit: unit}
}

// setPct records the q-quantile of samples (ns) scaled to unit, or says
// why it is absent.
func (r *report) setPct(name string, xs []float64, q float64, scale float64, unit string) {
	v, ok := pct(xs, q)
	if !ok {
		r.absent(name, fmt.Sprintf("%d samples: fewer than %d beyond p%g", len(xs), minBeyond, q*100))
		return
	}
	r.set(name, v/scale, unit, fmt.Sprintf("n=%d", len(xs)))
}

func (r *report) absent(name, why string) {
	fmt.Printf("%-34s %14s         (%s)\n", r.prefix+name, "absent", why)
}

func (r *report) fail(format string, args ...any) {
	r.res.Correct = false
	fmt.Fprintln(os.Stderr, "FAIL:", fmt.Sprintf(format, args...))
}

// count adds a phase's attempted and failed ops.
func (r *report) count(ph *phase) {
	r.res.Attempted += ph.ops.Load()
	r.res.Failed += ph.failed.Load()
	for _, e := range ph.errs {
		r.fail("%s", e)
	}
}

// keep restricts the result line to the named metrics.
func (r *report) keep(names []string) {
	kept := make(map[string]metric)
	for _, n := range names {
		if m, ok := r.res.Metrics[r.prefix+n]; ok {
			kept[r.prefix+n] = m
		}
	}
	r.res.Metrics = kept
}

func main() {
	workload := flag.String("workload", "", "sessions, clinic, durable or all")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "length of each timed phase in seconds")
	trace := flag.Int("trace", 0, "1: traced run with the per-layer ladder")
	dir := flag.String("dir", filepath.Join(".bench_build", "run"), "scratch directory for stores and span files")
	flag.Parse()
	var run []*spec
	for _, sp := range specs {
		if *workload == sp.name || *workload == "all" {
			run = append(run, sp)
		}
	}
	if len(run) == 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload sessions|clinic|durable|all --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	d := time.Duration(*seconds) * time.Second
	out := newReport()
	for _, sp := range run {
		base := filepath.Join(*dir, sp.name)
		if err := os.RemoveAll(base); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		if err := os.MkdirAll(base, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		rep := newReport()
		if len(run) > 1 {
			rep.prefix = sp.name + "."
		}
		printEnv(sp.name, *seed, base)
		var err error
		if *trace == 1 {
			err = runTraced(sp, *seed, d, base, rep)
			rep.keep(layerMetrics)
		} else {
			err = runE2E(sp, *seed, d, base, rep)
			rep.keep(e2eMetrics)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", sp.name, err)
			os.Exit(1)
		}
		if rmErr := os.RemoveAll(filepath.Join(base, "stores")); rmErr != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", rmErr)
		}
		out.res.Correct = out.res.Correct && rep.res.Correct
		out.res.Attempted += rep.res.Attempted
		out.res.Failed += rep.res.Failed
		for k, v := range rep.res.Metrics {
			out.res.Metrics[k] = v
		}
	}
	line, err := json.Marshal(out.res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.res.Correct || out.res.Failed > 0 {
		os.Exit(1)
	}
}

// printEnv prints what the numbers depend on besides the code.
func printEnv(workload string, seed int64, dir string) {
	fmt.Printf("workload %s  seed %d  go %s  GOMAXPROCS %d  nproc %d  fs %s  commit %s\n",
		workload, seed, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), fsType(dir), gitCommit())
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{0xEF53: "ext4", 0x58465342: "xfs", 0x01021994: "tmpfs",
		0x794c7630: "overlay", 0x9123683E: "btrfs", 0x2FC12FC1: "zfs", 0x6969: "nfs", 0x65735546: "fuse"}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// gitCommit returns the commit of the git checkout the benchmark runs
// from, or "unknown" when the directory is not one (git would otherwise
// report an enclosing repository).
func gitCommit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, "git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// setupSystems builds the workload's system sp.setupReps times, each in
// a fresh directory, keeps the last one running and returns it with the
// set-up times.
func setupSystems(sp *spec, seed int64, base string, p *probes, reps int) (*system, []float64, error) {
	var times []float64
	var s *system
	for r := 0; r < reps; r++ {
		dir := filepath.Join(base, "stores", fmt.Sprintf("setup%d", r))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, nil, err
		}
		start := time.Now()
		sys, err := sp.setup(sp, dir, seed, p)
		if err != nil {
			if sys != nil {
				sys.close()
			}
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		if r < reps-1 {
			if err := sys.close(); err != nil {
				return nil, nil, fmt.Errorf("setup: close: %w", err)
			}
			continue
		}
		s = sys
	}
	return s, times, nil
}

// timedPhase runs the workload's timed phase on s and returns the phase
// and the closed-loop throughput.
func timedPhase(sp *spec, s *system, seed int64, d time.Duration, recCap int) (*phase, float64) {
	ph := newPhase(s, recCap)
	if s.gw != nil {
		gw := s.gw
		ph.classify = func(a expr.Action) string {
			if len(gw.Route(a)) > 1 {
				return "twophase"
			}
			return ""
		}
	}
	// A reply that never comes fails the op when the phase overruns by a
	// minute, instead of hanging the run.
	ctx, cancel := context.WithTimeout(context.Background(), d+time.Minute)
	defer cancel()
	if sp.run != nil {
		return ph, sp.run(ctx, s, seed, d, ph)
	}
	return ph, closedLoop(ctx, s.callers, s.workers, s.gen, d, ph)
}

// heapLiveMB returns the live heap after a forced GC, less the
// benchmark's own latency buffers: the median of five readings 20ms
// apart, so that buffers a background task (a log compaction, a
// checkpoint) holds at one instant do not count as live.
func heapLiveMB(ph *phase) float64 {
	own := ph.lat.bytes() + 8*cap(ph.late)
	var xs []float64
	for i := 0; i < 5; i++ {
		if i > 0 {
			time.Sleep(20 * time.Millisecond)
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		xs = append(xs, float64(int(ms.HeapAlloc)-own)/(1<<20))
	}
	return median(xs)
}

// runE2E is the untraced run: set-up, the timed phase, the live heap,
// the correctness check of every store, and recovery of a fixed history.
func runE2E(sp *spec, seed int64, d time.Duration, base string, rep *report) error {
	s, setups, err := setupSystems(sp, seed, base, nil, sp.setupReps)
	if err != nil {
		return err
	}
	ph, thr := timedPhase(sp, s, seed, d, 0)
	heap := heapLiveMB(ph)
	rep.count(ph)
	if err := s.verify(); err != nil {
		rep.res.Failed++
		rep.fail("verify: %v", err)
	}
	rec, err := recoverySamples(sp, seed, base)
	if err != nil {
		rep.res.Failed++
		rep.fail("%v", err)
	}

	rep.set("setup_s", median(setups), "s", fmt.Sprintf("median of %d", len(setups)))
	rep.set("throughput_ops_s", thr, "ops/s", fmt.Sprintf("closed loop, median of %d windows", windows))
	rep.setPct("request_p50_us", ph.lat.get("request"), 0.5, 1e3, "us")
	rep.setPct("request_p99_us", ph.lat.get("request"), 0.99, 1e3, "us")
	if s.gw != nil {
		rep.setPct("twophase_p50_us", ph.lat.get("twophase"), 0.5, 1e3, "us")
	}
	rep.setPct("try_p50_us", ph.lat.get("try"), 0.5, 1e3, "us")
	if len(rec) > 0 {
		rep.set("recovery_s", median(rec), "s", fmt.Sprintf("median of %d", len(rec)))
	}
	rep.set("heap_live_mb", heap, "MB", "after forced GCs, less the latency buffers; median of 5")
	if ph.late != nil {
		rep.setPct("harness.late_p99_us", ph.late, 0.99, 1e3, "us")
	}
	rep.set("failed_ratio", float64(rep.res.Failed)/math.Max(1, float64(rep.res.Attempted)), "1",
		fmt.Sprintf("%d of %d", rep.res.Failed, rep.res.Attempted))
	return nil
}

// recoverySamples writes the workload's fixed history once and times
// its reopening.
func recoverySamples(sp *spec, seed int64, base string) ([]float64, error) {
	dir := filepath.Join(base, "stores", "history")
	reopen, steps, keys, err := writeHistory(dir, sp, sp.history(seed))
	if err != nil {
		return nil, fmt.Errorf("recovery: %w", err)
	}
	return recovery(reopen, steps, keys, sp.recReps)
}
