package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/cluster"
	"repro/internal/expr"
	"repro/internal/manager"
	"repro/internal/paper"
	"repro/internal/parse"
	"repro/internal/storage"
)

var specs = []*spec{sessionsSpec, clinicSpec, durableSpec}

// --- sessions -------------------------------------------------------------

// liveSessions is how many users the sessions workload keeps mid-call.
const liveSessions = 512

var sessionsSpec = &spec{
	name:      "sessions",
	setupReps: 3,
	recReps:   5,
	expr:      func() (*expr.Expr, error) { return parse.Parse("all p: (call(p) - perform(p))*") },
	// A buffered monolith log: the library defaults, no fsync, no
	// snapshots.
	opts: func(dir string, p *probes) (manager.Options, error) {
		log := filepath.Join(dir, "actions.log")
		if p == nil {
			return manager.Options{LogPath: log}, nil
		}
		mb, err := storage.OpenMonolith(log, "")
		if err != nil {
			return manager.Options{}, err
		}
		return manager.Options{Storage: decorate(mb, p, true), Metrics: p.reg}, nil
	},
	backend: monolith,
	setup: func(sp *spec, dir string, seed int64, p *probes) (*system, error) {
		s := newSystem(1)
		n, err := startLocal(s, sp, dir, p)
		if err != nil {
			return s, err
		}
		g := newSessionsGen(seed)
		ctx := context.Background()
		for _, o := range g.ramp() {
			if err := n.m.Request(ctx, o.a); err != nil {
				return s, fmt.Errorf("ramp: %s: %w", o.a, err)
			}
			s.acked[0].Add(1)
		}
		s.callers = []caller{manager.CoordinatorFor(n.m)}
		s.workers = 1
		s.gen = func(int) func() []op { return g.cycle }
		return s, nil
	},
	prefix: func(seed int64) []op { return newSessionsGen(seed).ramp() },
	// The ramp to 512 live sessions, then 64 cycles.
	history: func(seed int64) []op {
		g := newSessionsGen(seed)
		h := g.ramp()
		for i := 0; i < 64; i++ {
			h = append(h, granted(g.cycle())...)
		}
		return h
	},
}

// sessionsGen models the sessions workload: users [finished, next) are
// mid-call. Each cycle probes and finishes the oldest session and starts
// a fresh user, so values never repeat; one cycle in ten also sends a
// perform for a finished user, which must be denied.
type sessionsGen struct {
	rng            *rand.Rand
	finished, next int
}

func newSessionsGen(seed int64) *sessionsGen {
	return &sessionsGen{rng: rand.New(rand.NewSource(seed))}
}

func user(i int) string { return "u" + strconv.Itoa(i) }

func (g *sessionsGen) ramp() []op {
	var ops []op
	for g.next < liveSessions {
		ops = append(ops, op{a: expr.ConcreteAct("call", user(g.next)), want: true})
		g.next++
	}
	return ops
}

func (g *sessionsGen) cycle() []op {
	u := user(g.finished)
	ops := []op{
		{try: true, a: expr.ConcreteAct("perform", u), want: true},
		{a: expr.ConcreteAct("perform", u), want: true},
	}
	if g.rng.Intn(10) == 0 && g.finished > 0 {
		ops = append(ops, op{a: expr.ConcreteAct("perform", user(g.rng.Intn(g.finished))), want: false})
	}
	g.finished++
	ops = append(ops, op{a: expr.ConcreteAct("call", user(g.next)), want: true})
	g.next++
	return ops
}

// monolith opens a monolith log with a snapshot file in dir.
func monolith(dir string) (storage.Backend, error) {
	return storage.OpenMonolith(filepath.Join(dir, "actions.log"), filepath.Join(dir, "snapshot"))
}

// granted keeps the writes of ops that the model grants.
func granted(ops []op) []op {
	var out []op
	for _, o := range ops {
		if !o.try && o.want {
			out = append(out, o)
		}
	}
	return out
}

// startLocal opens the workload's single manager in process.
func startLocal(s *system, sp *spec, dir string, p *probes) (*node, error) {
	e, err := sp.expr()
	if err != nil {
		return nil, err
	}
	opts, err := sp.opts(dir, p)
	if err != nil {
		return nil, err
	}
	reopen := func() (*manager.Manager, error) {
		o, err := sp.opts(dir, nil)
		if err != nil {
			return nil, err
		}
		return manager.New(e, o)
	}
	return s.startNode(0, e, opts, reopen, nil, "", p)
}

// --- clinic ---------------------------------------------------------------

const (
	clinicHandlers = 12 // 3 per department: the capacity limit never refuses
	clinicPatients = 4  // recurring patients per handler
)

var clinicSpec = &spec{
	name:      "clinic",
	setupReps: 25,
	recReps:   7,
	expr:      func() (*expr.Expr, error) { return paper.Fig7Coupled(), nil },
	// Buffered monolith logs on every primary and follower.
	opts: func(dir string, p *probes) (manager.Options, error) {
		log := filepath.Join(dir, "actions.log")
		if p == nil {
			return manager.Options{LogPath: log}, nil
		}
		mb, err := storage.OpenMonolith(log, "")
		if err != nil {
			return manager.Options{}, err
		}
		return manager.Options{Storage: decorate(mb, p, true), Metrics: p.reg}, nil
	},
	backend: monolith,
	setup: func(sp *spec, dir string, seed int64, p *probes) (*system, error) {
		s, replicas, err := startShards(sp, dir, true, p)
		if err != nil {
			return s, err
		}
		gw, err := startGateway(s, sp, replicas, p, cluster.GatewayOptions{ReadFromFollowers: true})
		if err != nil {
			return s, err
		}
		ln, err := listen()
		if err != nil {
			return s, err
		}
		var co manager.Coordinator = gw
		if p != nil {
			tc := newTracedCoord(gw, "gateway", p.tr)
			p.coords = append(p.coords, tc)
			co = tc
		}
		srv := manager.NewCoordServer(co, ln)
		s.onClose(srv.Close)
		for i := 0; i < 2; i++ {
			c, err := s.dial(srv.Addr(), p)
			if err != nil {
				return s, err
			}
			s.callers = append(s.callers, c)
		}
		s.workers = clinicHandlers
		s.gen = func(i int) func() []op { return newClinicGen(seed, i).cycle }
		return s, nil
	},
	prefix: func(int64) []op { return nil },
	// 500 granted writes, the handlers' cycles interleaved round-robin.
	history: func(seed int64) []op {
		gens := make([]*clinicGen, clinicHandlers)
		for i := range gens {
			gens[i] = newClinicGen(seed, i)
		}
		var h []op
		for i := 0; len(h) < 500; i++ {
			h = append(h, granted(gens[i%clinicHandlers].cycle())...)
		}
		return h
	},
}

// clinicGen models one worklist handler of Fig 7: it owns one department
// and walks four recurring patients through prepare, a probe of perform
// (which must be false), call, perform and inform. One cycle in ten also
// sends a premature perform, which the two-phase grant must refuse.
type clinicGen struct {
	rng  *rand.Rand
	h, k int
}

func newClinicGen(seed int64, h int) *clinicGen {
	return &clinicGen{rng: rand.New(rand.NewSource(seed*1_000_003 + int64(h))), h: h}
}

func (g *clinicGen) cycle() []op {
	x := "x" + strconv.Itoa(g.h/3)
	p := fmt.Sprintf("p%d_%d", g.h, g.k%clinicPatients)
	g.k++
	ops := []op{
		{a: paper.PrepareAct(p, x), want: true},
		{try: true, a: paper.PerformAct(p, x), want: false},
	}
	if g.rng.Intn(10) == 0 {
		ops = append(ops, op{a: paper.PerformAct(p, x), want: false})
	}
	return append(ops,
		op{a: paper.CallAct(p, x), want: true},
		op{a: paper.PerformAct(p, x), want: true},
		op{a: paper.InformAct(p, x), want: true})
}

// startShards starts one loopback shard server per coupling operand of
// the workload's expression, each primary streaming to one synchronous
// follower when followers is set. It returns the replica sets.
func startShards(sp *spec, dir string, followers bool, p *probes) (*system, [][]string, error) {
	e, err := sp.expr()
	if err != nil {
		return nil, nil, err
	}
	parts := cluster.Partition(e)
	s := newSystem(len(parts))
	replicas := make([][]string, len(parts))
	for i, part := range parts {
		part := part
		start := func(role string, opts func(string) (manager.Options, error), ln net.Listener) error {
			ndir := filepath.Join(dir, fmt.Sprintf("shard%d-%s", i, role))
			if err := os.MkdirAll(ndir, 0o755); err != nil {
				return err
			}
			o, err := opts(ndir)
			if err != nil {
				return err
			}
			reopen := func() (*manager.Manager, error) {
				o, err := sp.opts(ndir, nil)
				if err != nil {
					return nil, err
				}
				return manager.New(part, o)
			}
			_, err = s.startNode(i, part, o, reopen, ln, fmt.Sprintf("%s%d", role, i), p)
			return err
		}
		pln, err := listen()
		if err != nil {
			return s, nil, err
		}
		replicas[i] = []string{pln.Addr().String()}
		var fln net.Listener
		if followers {
			if fln, err = listen(); err != nil {
				pln.Close()
				return s, nil, err
			}
			replicas[i] = append(replicas[i], fln.Addr().String())
		}
		err = start("primary", func(d string) (manager.Options, error) {
			o, err := sp.opts(d, p)
			if followers {
				o.Replicas = replicas[i][1:]
				o.SyncReplicas = true
				if p != nil {
					o.Dialer = p.shard.dialer()
				}
			}
			return o, err
		}, pln)
		if err != nil {
			if fln != nil {
				fln.Close()
			}
			return s, nil, err
		}
		if followers {
			err = start("follower", func(d string) (manager.Options, error) {
				o, err := sp.opts(d, nil)
				o.Follower = true
				return o, err
			}, fln)
			if err != nil {
				return s, nil, err
			}
		}
	}
	return s, replicas, nil
}

// startGateway starts a gateway over the replica sets, connected before
// it returns.
func startGateway(s *system, sp *spec, replicas [][]string, p *probes, o cluster.GatewayOptions) (*cluster.Gateway, error) {
	e, err := sp.expr()
	if err != nil {
		return nil, err
	}
	if p != nil {
		o.Metrics = p.reg
		o.Dialer = p.shard.dialer()
	}
	gw, err := cluster.NewReplicatedGateway(e, replicas, o)
	if err != nil {
		return nil, err
	}
	s.onClose(gw.Close)
	s.gw = gw
	s.route = gw.Route
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := gw.Ping(ctx); err != nil {
		return nil, err
	}
	return gw, nil
}

// --- durable --------------------------------------------------------------

const (
	durableCallers = 16   // closed-loop callers in phase A
	durableRate    = 8000 // open-loop arrivals per second in phase B
	durableHistory = 20000
	// durableInFlight bounds phase B's outstanding requests: half a
	// second of arrivals, so a stalled server cannot grow goroutines
	// without bound while every wait still counts from the due time.
	durableInFlight = durableRate / 2
)

var durableActions = []string{"submit", "approve", "exec"}

var durableSpec = &spec{
	name:      "durable",
	setupReps: 25,
	recReps:   31,
	expr:      func() (*expr.Expr, error) { return parse.Parse("(submit | approve | exec)*") },
	// Segmented storage with group commit up to 64 (one flush per batch),
	// a checkpoint every 1000 confirms and a full one every 8. Batches
	// are not fsynced: on a shared virtual disk the fsync latency varies
	// from run to run by more than any bound worth gating on, while
	// checkpoints and segment seals still fsync.
	opts: func(dir string, p *probes) (manager.Options, error) {
		o := manager.Options{BatchMaxSize: 64, SnapshotEvery: 1000, FullCheckpointEvery: 8}
		if p == nil {
			o.StorageDir = dir
			return o, nil
		}
		seg, err := storage.OpenSegmented(dir, 0)
		if err != nil {
			return o, err
		}
		o.Storage = decorate(seg, p, false)
		o.Metrics = p.reg
		return o, nil
	},
	backend: func(dir string) (storage.Backend, error) { return storage.OpenSegmented(dir, 0) },
	setup: func(sp *spec, dir string, seed int64, p *probes) (*system, error) {
		s := newSystem(1)
		ln, err := listen()
		if err != nil {
			return s, err
		}
		e, err := sp.expr()
		if err != nil {
			ln.Close()
			return s, err
		}
		opts, err := sp.opts(dir, p)
		if err != nil {
			ln.Close()
			return s, err
		}
		reopen := func() (*manager.Manager, error) {
			o, err := sp.opts(dir, nil)
			if err != nil {
				return nil, err
			}
			return manager.New(e, o)
		}
		n, err := s.startNode(0, e, opts, reopen, ln, "server", p)
		if err != nil {
			return s, err
		}
		for i := 0; i < 2; i++ {
			c, err := s.dial(n.srv.Addr(), p)
			if err != nil {
				return s, err
			}
			s.callers = append(s.callers, c)
		}
		s.workers = durableCallers
		s.gen = func(i int) func() []op {
			rng := rand.New(rand.NewSource(seed*1_000_003 + int64(i)))
			return func() []op { return []op{durableOp(rng, rng.Intn(8) == 0)} }
		}
		return s, nil
	},
	// Phase A, the first three quarters: the closed loop, for throughput
	// and probes. Phase B, the last quarter: seeded Poisson arrivals at a
	// fixed rate, each write timed from when it was due.
	run: func(ctx context.Context, s *system, seed int64, d time.Duration, ph *phase) float64 {
		closed := &phase{lat: newRecorder(), acked: ph.acked, recCap: ph.recCap}
		thr := closedLoop(ctx, s.callers, s.workers, s.gen, d*3/4, closed)
		ph.recorded = closed.recorded
		ph.errs = append(ph.errs, closed.errs...)
		ph.ops.Add(closed.ops.Load())
		ph.failed.Add(closed.failed.Load())
		ph.lat.put("try", closed.lat.get("try"))

		rng := rand.New(rand.NewSource(seed))
		n := int(float64(durableRate) * (d / 4).Seconds())
		due := poissonSchedule(n, durableRate, rng.ExpFloat64)
		ops := make([]op, n)
		for i := range ops {
			ops[i] = durableOp(rng, false)
		}
		ok := make([]bool, n)
		lat, late := openLoop(due, durableInFlight, func(i int) {
			ok[i], _ = ph.exec(ctx, s.callers[i%len(s.callers)], ops[i])
		})
		ph.late = make([]float64, n)
		for i, l := range lat {
			if ok[i] {
				ph.record(ops[i], l)
			}
			ph.late[i] = float64(late[i])
		}
		return thr
	},
	prefix: func(int64) []op { return nil },
	history: func(seed int64) []op {
		rng := rand.New(rand.NewSource(seed))
		h := make([]op, durableHistory)
		for i := range h {
			h[i] = durableOp(rng, false)
		}
		return h
	},
}

// durableOp draws one op of the durable workload: every write is
// granted in any order, and every probe is true.
func durableOp(rng *rand.Rand, try bool) op {
	return op{try: try, a: expr.ConcreteAct(durableActions[rng.Intn(len(durableActions))]), want: true}
}
