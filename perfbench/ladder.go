package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/expr"
	"repro/internal/manager"
	"repro/internal/obs"
	"repro/internal/state"
	"repro/internal/storage"
)

// ladderOps caps how much of the traced run's sequence the ladder
// replays per workload: every rung replays it serially.
var ladderOps = map[string]int{"sessions": 240, "clinic": 1500, "durable": 1500}

// runTraced runs the workload untraced and then traced, for the tracing
// overhead and the concurrent per-layer numbers, and replays the traced
// run's sequence down the layer ladder.
func runTraced(sp *spec, seed int64, d time.Duration, base string, rep *report) error {
	s, _, err := setupSystems(sp, seed, filepath.Join(base, "stores", "untraced"), nil, 1)
	if err != nil {
		return err
	}
	ph0, thr0 := timedPhase(sp, s, seed, d, 0)
	rep.count(ph0)
	// The tail of the untraced run: too unsteady from run to run on a
	// small shared machine to gate on, so it is reported here.
	rep.setPct("request_p99_us", ph0.lat.get("request"), 0.99, 1e3, "us")
	if err := s.verify(); err != nil {
		rep.res.Failed++
		rep.fail("verify (untraced): %v", err)
	}

	p := &probes{tr: newTracer(), reg: obs.NewRegistry()}
	s, _, err = setupSystems(sp, seed, filepath.Join(base, "stores", "traced"), p, 1)
	if err != nil {
		return err
	}
	peak := sampleGoroutines()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuSeconds()
	ph, thr := timedPhase(sp, s, seed, d, ladderOps[sp.name])
	cpu1 := cpuSeconds()
	runtime.ReadMemStats(&ms1)
	goroutines := peak()
	rep.count(ph)
	var acked int64
	for i := range s.acked {
		acked += s.acked[i].Load()
	}
	if err := s.verify(); err != nil {
		rep.res.Failed++
		rep.fail("verify (traced): %v", err)
	}

	var durability []float64
	var syncs int64
	for _, b := range p.backends {
		durability = append(durability, b.samples()...)
		syncs += b.syncs.Load()
	}
	rep.setPct("storage.commit_p50_ns", durability, 0.5, 1, "ns")
	rep.setPct("storage.commit_p99_ns", durability, 0.99, 1, "ns")
	rep.set("storage.syncs_per_op", float64(syncs)/float64(max(acked, 1)), "1", fmt.Sprintf("%d syncs, %d store writes", syncs, acked))
	if bs := p.reg.Histogram("ix_manager_batch_size").Snapshot(); bs.Count > 0 {
		rep.set("manager.batch_size", bs.Mean(), "actions", fmt.Sprintf("%d batches", bs.Count))
	} else {
		rep.set("manager.batch_size", 1, "actions", "group commit off: one action per commit")
	}
	rep.set("manager.net.goroutines_peak", float64(goroutines), "count", "")
	rep.set("process.allocs_per_op", float64(ms1.Mallocs-ms0.Mallocs)/float64(max(ph.ops.Load(), 1)), "allocs", "")
	gcFrac := 0.0
	if total := cpu1.total - cpu0.total; total > 0 {
		gcFrac = (cpu1.gc - cpu0.gc) / total
	}
	rep.set("process.gc_cpu_fraction", gcFrac, "1", "")
	rep.set("harness.trace_overhead", thr0/thr-1, "1", fmt.Sprintf("untraced %.1f ops/s, traced %.1f ops/s", thr0, thr))
	if ph.late != nil {
		rep.setPct("harness.late_p99_us", ph.late, 0.99, 1e3, "us")
	}
	if err := p.tr.write(filepath.Join(base, "spans-traced.csv")); err != nil {
		return err
	}
	if p.tr.dropped > 0 {
		fmt.Printf("spans: %d kept, %d dropped past the cap\n", len(p.tr.spans), p.tr.dropped)
	}
	return runLadder(sp, seed, ph.recorded, base, rep)
}

// sampleGoroutines samples the goroutine count every millisecond until
// the returned function is called, which returns the peak.
func sampleGoroutines() func() int {
	stop := make(chan struct{})
	done := make(chan int)
	go func() {
		peak := runtime.NumGoroutine()
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				done <- peak
				return
			case <-t.C:
				peak = max(peak, runtime.NumGoroutine())
			}
		}
	}()
	return func() int {
		close(stop)
		return <-done
	}
}

type cpuSample struct{ gc, total float64 }

func cpuSeconds() cpuSample {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	var out cpuSample
	if s[0].Value.Kind() == metrics.KindFloat64 {
		out.gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		out.total = s[1].Value.Float64()
	}
	return out
}

// rung replays the ladder's sequence through one caller: the prefix
// untimed, then every op under a root span. It returns the root span of
// each op.
type rung struct {
	tr     *tracer
	prefix []op
	ops    []op
}

func (r *rung) replay(name string, c caller, before func(i int), after func(i int)) ([]int32, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for _, o := range r.prefix {
		if err := c.Request(ctx, o.a); err != nil {
			return nil, fmt.Errorf("%s: prefix %s: %w", name, o.a, err)
		}
	}
	roots := make([]int32, len(r.ops))
	ph := &phase{lat: newRecorder(), acked: func(expr.Action) {}}
	for i, o := range r.ops {
		if before != nil {
			before(i)
		}
		kind := ".request"
		if o.try {
			kind = ".try"
		}
		key := o.a.String()
		roots[i] = r.tr.root(name+kind, key)
		ok, _ := ph.exec(ctx, c, o)
		r.tr.finish(roots[i], key)
		if after != nil {
			after(i)
		}
		if !ok {
			return nil, fmt.Errorf("%s: %s", name, strings.Join(ph.errs, "; "))
		}
	}
	return roots, nil
}

// writes picks the values of xs at the ops that are writes and match
// keep (nil keeps every write).
func (r *rung) writes(xs []float64, keep func(i int) bool) []float64 {
	var out []float64
	for i, o := range r.ops {
		if !o.try && (keep == nil || keep(i)) {
			out = append(out, xs[i])
		}
	}
	return out
}

func (r *rung) durs(roots []int32) []float64 {
	xs := make([]float64, len(roots))
	for i, id := range roots {
		xs[i] = float64(r.tr.dur(id))
	}
	return xs
}

func (r *rung) selfs(roots []int32) []float64 {
	self := r.tr.self()
	xs := make([]float64, len(roots))
	for i, id := range roots {
		xs[i] = float64(self[id])
	}
	return xs
}

// runLadder replays ops (after the workload's prefix) serially down the
// layer ladder: L1 the bare engine, L2 the in-process manager with the
// workload's storage, L3 the storage backend alone, L4 the manager over
// the loopback wire, L5 a gateway over the shard servers, L6 the same
// with a synchronous follower per shard. A layer's self time is its span
// minus what its child spans cover, and minus the engine time L1
// measured for the same op where the engine runs inside it unspanned.
func runLadder(sp *spec, seed int64, ops []op, base string, rep *report) error {
	if len(ops) == 0 {
		return errors.New("ladder: the traced run recorded no ops")
	}
	e, err := sp.expr()
	if err != nil {
		return err
	}
	prefix := granted(sp.prefix(seed))
	tr := newTracer()
	r := &rung{tr: tr, prefix: prefix, ops: ops}
	fmt.Printf("ladder: %d ops after a %d-write prefix\n", len(ops), len(prefix))

	// L1: the bare engine.
	en, err := state.NewEngine(e)
	if err != nil {
		return err
	}
	for _, o := range prefix {
		if err := en.Step(o.a); err != nil {
			return fmt.Errorf("L1: prefix: %w", err)
		}
	}
	l1 := make([]float64, len(ops))
	var tries, steps []float64
	for i, o := range ops {
		start := time.Now()
		ok := en.Try(o.a)
		dt := time.Since(start)
		tries = append(tries, float64(dt))
		l1[i] = float64(dt)
		if ok != o.want {
			return fmt.Errorf("L1: try %s = %v, want %v", o.a, ok, o.want)
		}
		if !o.try && ok {
			start = time.Now()
			if err := en.Step(o.a); err != nil {
				return fmt.Errorf("L1: %w", err)
			}
			dt = time.Since(start)
			steps = append(steps, float64(dt))
			l1[i] += float64(dt)
		}
	}
	rep.setPct("state.try_ns", tries, 0.5, 1, "ns")
	rep.setPct("state.step_ns", steps, 0.5, 1, "ns")
	rep.set("state.size", float64(en.StateSize()), "nodes", "StateSize at the end")
	allocs, err := allocsPerStep(e, prefix, ops)
	if err != nil {
		return err
	}
	rep.set("state.allocs_per_step", allocs, "allocs", "")

	// L2: the manager in process, with the workload's storage.
	{
		p := &probes{tr: tr, reg: obs.NewRegistry()}
		s := newSystem(1)
		n, err := startLocal(s, sp, rungDir(base, "L2"), p)
		if err != nil {
			s.close()
			return err
		}
		if _, ok := n.m.CacheStats(); ok {
			rep.absent("state.memo_hit_ratio", "a cache is attached, but the benchmark runs the default configuration")
		} else {
			rep.absent("state.memo_hit_ratio", "no cache attached: default engine configuration (no StateCache, MemoCapacity 0)")
		}
		roots, err := r.replay("manager", manager.CoordinatorFor(n.m), nil, nil)
		if cerr := s.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		self := r.selfs(roots)
		for i := range self {
			self[i] -= l1[i]
		}
		rep.setPct("manager.request_ns", r.writes(r.durs(roots), nil), 0.5, 1, "ns")
		rep.setPct("manager.self_ns", r.writes(self, nil), 0.5, 1, "ns")
	}

	// L3: the storage backend alone.
	if err := storageRung(sp, prefix, ops, en, rungDir(base, "L3"), rep); err != nil {
		return err
	}

	// L4: the manager over the loopback wire.
	{
		p := &probes{tr: tr, reg: obs.NewRegistry()}
		s := newSystem(1)
		err := func() error {
			ln, err := listen()
			if err != nil {
				return err
			}
			dir := rungDir(base, "L4")
			opts, err := sp.opts(dir, p)
			if err != nil {
				ln.Close()
				return err
			}
			n, err := s.startNode(0, e, opts, nil, ln, "server", p)
			if err != nil {
				return err
			}
			c, err := s.dial(n.srv.Addr(), p)
			if err != nil {
				return err
			}
			var w0, b0 int64
			roots, err := r.replay("net", c, func(i int) {
				if i == 0 {
					w0, b0 = p.conns.writes.Load(), p.conns.bytesIn.Load()+p.conns.bytesOut.Load()
				}
			}, nil)
			if err != nil {
				return err
			}
			n1 := float64(len(ops))
			rep.setPct("manager.net.request_ns", r.writes(r.durs(roots), nil), 0.5, 1, "ns")
			rep.setPct("manager.net.self_ns", r.writes(r.selfs(roots), nil), 0.5, 1, "ns")
			rep.set("manager.net.bytes_per_op", float64(p.conns.bytesIn.Load()+p.conns.bytesOut.Load()-b0)/n1, "bytes", "client side, both directions")
			rep.set("manager.net.writes_per_op", float64(p.conns.writes.Load()-w0)/n1, "writes", "client side")
			return nil
		}()
		if cerr := s.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("L4: %w", err)
		}
	}

	// L5: a gateway in process over the shard servers.
	if err := gatewayRung(sp, r, rungDir(base, "L5"), false, rep); err != nil {
		return fmt.Errorf("L5: %w", err)
	}
	// L6: the same with a synchronous follower per shard.
	if err := gatewayRung(sp, r, rungDir(base, "L6"), true, rep); err != nil {
		return fmt.Errorf("L6: %w", err)
	}
	return tr.write(filepath.Join(base, "spans-ladder.csv"))
}

// rungDir creates and returns the store directory of one rung; a
// failure to create it surfaces when the rung opens its store.
func rungDir(base, rung string) string {
	dir := filepath.Join(base, "stores", rung)
	_ = os.MkdirAll(dir, 0o755)
	return dir
}

// allocsPerStep counts heap allocations per committed transition on a
// fresh engine (exact: nothing else runs while it counts).
func allocsPerStep(e *expr.Expr, prefix, ops []op) (float64, error) {
	en, err := state.NewEngine(e)
	if err != nil {
		return 0, err
	}
	for _, o := range prefix {
		if err := en.Step(o.a); err != nil {
			return 0, err
		}
	}
	ws := granted(ops)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, o := range ws {
		if err := en.Step(o.a); err != nil {
			return 0, fmt.Errorf("allocs: %w", err)
		}
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(max(len(ws), 1)), nil
}

// storageRung measures the workload's backend alone: log bytes and
// replay time per action for the ladder's writes, and the time to save a
// full checkpoint of the final state.
func storageRung(sp *spec, prefix, ops []op, en *state.Engine, dir string, rep *report) error {
	ws := append(append([]op(nil), prefix...), granted(ops)...)
	b, err := sp.backend(dir)
	if err != nil {
		return err
	}
	for i, o := range ws {
		if err := b.Append(storage.Entry{Name: o.a.Name, Args: o.a.Values(), Seq: uint64(i + 1)}); err != nil {
			b.Close()
			return err
		}
	}
	bytes, err := b.LogBytes()
	if cerr := b.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	rep.set("storage.bytes_per_action", float64(bytes)/float64(len(ws)), "bytes", fmt.Sprintf("%d actions", len(ws)))
	var replay []float64
	for rr := 0; rr < 5; rr++ {
		b, err := sp.backend(dir)
		if err != nil {
			return err
		}
		n := 0
		start := time.Now()
		err = b.Replay(func(storage.Entry) error { n++; return nil })
		dt := time.Since(start)
		if cerr := b.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		if n != len(ws) {
			return fmt.Errorf("L3: replayed %d of %d entries", n, len(ws))
		}
		replay = append(replay, float64(dt)/float64(n))
	}
	rep.set("storage.replay_ns_per_action", median(replay), "ns", "median of 5")
	data, err := en.MarshalState()
	if err != nil {
		return err
	}
	b, err = sp.backend(dir)
	if err != nil {
		return err
	}
	var ckpt []float64
	for rr := 0; rr < 5; rr++ {
		start := time.Now()
		if err := b.SaveCheckpoint(storage.Checkpoint{Seq: uint64(len(ws)), Full: true, Data: data}); err != nil {
			b.Close()
			return err
		}
		ckpt = append(ckpt, float64(time.Since(start)))
	}
	if err := b.Close(); err != nil {
		return err
	}
	rep.set("storage.checkpoint_ns", median(ckpt), "ns", fmt.Sprintf("full checkpoint of %d bytes, median of 5", len(data)))
	return nil
}

// gatewayRung replays the sequence through an in-process gateway over
// the workload's shard servers, with a synchronous follower per shard
// when replicated is set.
func gatewayRung(sp *spec, r *rung, dir string, replicated bool, rep *report) error {
	p := &probes{tr: r.tr, reg: obs.NewRegistry()}
	s, replicas, err := startShards(sp, dir, replicated, p)
	if err != nil {
		if s != nil {
			s.close()
		}
		return err
	}
	defer s.close()
	gw, err := startGateway(s, sp, replicas, p, cluster.GatewayOptions{TraceCapacity: len(r.ops) + 1})
	if err != nil {
		return err
	}
	var commits0, applies0 int64
	var msgs, twophase int64
	var w0 int64
	roots, err := r.replay("cluster", gw, func(i int) {
		if i == 0 {
			commits0, applies0 = coordCounts(p)
			p.reg.Histogram("ix_manager_repl_ack_ns").Reset()
		}
		w0 = p.shard.writes.Load()
	}, func(i int) {
		if len(gw.Route(r.ops[i].a)) > 1 && !r.ops[i].try {
			msgs += p.shard.writes.Load() - w0
			twophase++
		}
	})
	if err != nil {
		return err
	}
	durs := r.durs(roots)
	multi := func(i int) bool { return len(gw.Route(r.ops[i].a)) > 1 }
	if !replicated {
		rep.setPct("cluster.single_ns", r.writes(durs, func(i int) bool { return !multi(i) }), 0.5, 1, "ns")
		if twophase == 0 {
			for _, m := range []string{"cluster.twophase_ns", "cluster.reserve_ns", "cluster.confirm_ns", "cluster.msgs_per_twophase", "cluster.refused_ratio"} {
				rep.absent(m, "no action of this workload spans two shards")
			}
			return nil
		}
		rep.setPct("cluster.twophase_ns", r.writes(durs, multi), 0.5, 1, "ns")
		var reserve, confirm []float64
		for _, t := range gw.Traces() {
			for _, ev := range t.Events {
				switch ev.Phase {
				case cluster.PhaseReserve:
					reserve = append(reserve, float64(ev.DurNs))
				case cluster.PhaseConfirm:
					confirm = append(confirm, float64(ev.DurNs))
				}
			}
		}
		rep.setPct("cluster.reserve_ns", reserve, 0.5, 1, "ns")
		rep.setPct("cluster.confirm_ns", confirm, 0.5, 1, "ns")
		rep.set("cluster.msgs_per_twophase", float64(msgs)/float64(twophase), "msgs", "gateway → shard writes per two-phase grant")
		granted := p.reg.Counter("ix_gateway_reserves_total").Load()
		refused := p.reg.Counter("ix_gateway_reserve_refusals_total").Load()
		rep.set("cluster.refused_ratio", float64(refused)/float64(max(granted+refused, 1)), "1",
			fmt.Sprintf("%d refused of %d reservations", refused, granted+refused))
		return nil
	}
	commits1, applies1 := coordCounts(p)
	var apply []float64
	for i := range replicas {
		apply = append(apply, r.tr.spansNamed(fmt.Sprintf("follower%d.apply", i), true)...)
	}
	ack := p.reg.Histogram("ix_manager_repl_ack_ns").Snapshot()
	if ack.Count == 0 {
		return errors.New("no replication acks observed")
	}
	rep.set("manager.replica.ack_ns", float64(ack.P50), "ns", fmt.Sprintf("n=%d, histogram bucket", ack.Count))
	rep.set("manager.replica.frames_per_commit", float64(applies1-applies0)/float64(max(commits1-commits0, 1)), "frames",
		fmt.Sprintf("%d frames, %d commits", applies1-applies0, commits1-commits0))
	rep.setPct("manager.replica.apply_ns", apply, 0.5, 1, "ns")
	return nil
}

// coordCounts sums the primaries' commits and the followers' applied
// frames.
func coordCounts(p *probes) (commits, applies int64) {
	for _, c := range p.coords {
		if strings.HasPrefix(c.name, "primary") {
			commits += c.commits.Load()
		}
		applies += c.applies.Load()
	}
	return commits, applies
}
