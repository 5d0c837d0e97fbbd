package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/expr"
	"repro/internal/manager"
	"repro/internal/obs"
	"repro/internal/storage"
)

// op is one call a workload makes, with the verdict its model expects.
type op struct {
	try  bool // a read probe (Try), not a write (Request)
	a    expr.Action
	want bool // write granted, or probe true
}

// caller is one client's view of the system under test: an in-process
// manager, a wire client or a gateway.
type caller interface {
	Request(ctx context.Context, a expr.Action) error
	Try(ctx context.Context, a expr.Action) (bool, error)
}

// probes are the benchmark's own instruments, attached only in the
// traced run: a span tracer, a metrics registry handed to managers and
// gateways, counted client connections, and the storage and coordinator
// decorators it put into the system (appended while the system is set
// up, read once it has run).
type probes struct {
	tr       *tracer
	reg      *obs.Registry
	conns    connCounts // client → server connections
	shard    connCounts // gateway → shard and replication connections
	backends []*timedBackend
	coords   []*tracedCoord
}

// spec describes one workload: how to build its system, what its callers
// send, and its fixed recovery history.
type spec struct {
	name      string
	setupReps int // set-ups per run; setup_s is their median
	recReps   int // reopens per run; recovery_s is their median
	// expr builds the workload's interaction expression.
	expr func() (*expr.Expr, error)
	// opts returns a shard manager's storage options in dir. With p
	// non-nil the backend is decorated and the registry attached.
	opts func(dir string, p *probes) (manager.Options, error)
	// backend opens the workload's storage engine alone in dir, with
	// room for a checkpoint.
	backend func(dir string) (storage.Backend, error)
	// setup builds the system in dir and brings it to the state the
	// timed phase starts from.
	setup func(sp *spec, dir string, seed int64, p *probes) (*system, error)
	// run drives the timed phase and returns the throughput of its
	// closed-loop part. Nil runs the system's callers in one closed loop
	// for the whole phase.
	run func(ctx context.Context, s *system, seed int64, d time.Duration, ph *phase) float64
	// prefix is the untimed part of the ladder's replay: the writes that
	// bring a fresh system to where the recorded sequence starts.
	prefix func(seed int64) []op
	// history is the fixed-length write history recovery_s reopens.
	history func(seed int64) []op
}

// node is one manager of a running system and how to reopen its store.
type node struct {
	m      *manager.Manager
	srv    *manager.Server // nil when served in process
	reopen func() (*manager.Manager, error)
}

// system is a running instance of a workload.
type system struct {
	callers []caller
	workers int                       // closed-loop callers
	gen     func(i int) func() []op   // cycle generator of caller i
	route   func(a expr.Action) []int // shards a granted write commits on
	shards  [][]*node                 // per shard: primary, then followers
	acked   []atomic.Int64            // granted writes per shard
	closers []func() error            // run in reverse order by close
	gw      *cluster.Gateway          // nil unless the system has one
	closed  bool
}

func newSystem(shards int) *system {
	return &system{acked: make([]atomic.Int64, shards), shards: make([][]*node, shards),
		route: func(expr.Action) []int { return []int{0} }}
}

func (s *system) onClose(f func() error) { s.closers = append(s.closers, f) }

// close stops every server, client and manager of the system.
func (s *system) close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	var first error
	for i := len(s.closers) - 1; i >= 0; i-- {
		if err := s.closers[i](); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// startNode opens a manager on e with opts, serves it on ln unless ln is
// nil (through a tracedCoord named name when p is non-nil), and
// registers its shutdown.
func (s *system) startNode(shard int, e *expr.Expr, opts manager.Options, reopen func() (*manager.Manager, error), ln net.Listener, name string, p *probes) (*node, error) {
	m, err := manager.New(e, opts)
	if err != nil {
		if ln != nil {
			ln.Close()
		}
		return nil, err
	}
	n := &node{m: m, reopen: reopen}
	s.shards[shard] = append(s.shards[shard], n)
	s.onClose(m.Close)
	if ln != nil {
		co := manager.CoordinatorFor(m)
		if p != nil {
			tc := newTracedCoord(co, name, p.tr)
			p.coords = append(p.coords, tc)
			co = tc
		}
		n.srv = manager.NewCoordServer(co, ln)
		s.onClose(n.srv.Close)
	}
	return n, nil
}

// listen reserves a loopback address for a server started later (a
// primary must know its followers' addresses before they exist).
func listen() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

// dial opens a wire client, counted when p is non-nil.
func (s *system) dial(addr string, p *probes) (*manager.Client, error) {
	var o manager.DialOptions
	if p != nil {
		o.Dialer = p.conns.dialer()
	}
	c, err := manager.DialWith(addr, o)
	if err != nil {
		return nil, err
	}
	s.onClose(c.Close)
	return c, nil
}

// verify checks the system against the acknowledged writes, closes it,
// reopens every store and checks that recovery restores the same state:
// each manager's step count equals the writes acknowledged on its shard,
// and each reopened store has the step count and state key its manager
// had before closing.
func (s *system) verify() error {
	type want struct {
		steps int
		key   string
	}
	wants := make([][]want, len(s.shards))
	var errs []error
	for i, ns := range s.shards {
		acked := int(s.acked[i].Load())
		for j, n := range ns {
			w := want{n.m.Steps(), n.m.StateKey()}
			wants[i] = append(wants[i], w)
			if w.steps != acked {
				errs = append(errs, fmt.Errorf("shard %d node %d: %d steps, %d writes acknowledged", i, j, w.steps, acked))
			}
		}
		if len(ns) > 1 && wants[i][0].key != wants[i][len(ns)-1].key {
			errs = append(errs, fmt.Errorf("shard %d: follower state differs from the primary's", i))
		}
	}
	if err := s.close(); err != nil {
		errs = append(errs, fmt.Errorf("close: %w", err))
	}
	for i, ns := range s.shards {
		for j, n := range ns {
			m, err := n.reopen()
			if err != nil {
				errs = append(errs, fmt.Errorf("shard %d node %d: reopen: %w", i, j, err))
				continue
			}
			if got := m.Steps(); got != wants[i][j].steps {
				errs = append(errs, fmt.Errorf("shard %d node %d: reopened with %d steps, closed with %d", i, j, got, wants[i][j].steps))
			}
			if m.StateKey() != wants[i][j].key {
				errs = append(errs, fmt.Errorf("shard %d node %d: reopened in a different state", i, j))
			}
			if err := m.Close(); err != nil {
				errs = append(errs, fmt.Errorf("shard %d node %d: close reopened: %w", i, j, err))
			}
		}
	}
	return errors.Join(errs...)
}

// phase accumulates one timed phase's outcome across its callers.
type phase struct {
	ops, failed atomic.Int64
	lat         *recorder
	classify    func(a expr.Action) string // "" or an extra latency class
	acked       func(a expr.Action)        // counts a granted write
	late        []float64                  // open-loop generator lateness, ns

	mu       sync.Mutex
	errs     []string
	recorded []op // ops in completion order, for the ladder
	recCap   int
}

func newPhase(s *system, recCap int) *phase {
	return &phase{
		lat:    newRecorder(),
		recCap: recCap,
		acked: func(a expr.Action) {
			for _, sh := range s.route(a) {
				s.acked[sh].Add(1)
			}
		},
	}
}

// maxErrs bounds the failure messages a phase keeps for the report.
const maxErrs = 5

// exec runs one op and checks its verdict against the model. A wrong
// verdict, an error or a timeout is a failure; an expected denial is
// not. It counts a granted write against its shards and returns whether
// the op met the model and how long it took.
func (ph *phase) exec(ctx context.Context, c caller, o op) (bool, time.Duration) {
	start := time.Now()
	var got bool
	var err error
	if o.try {
		got, err = c.Try(ctx, o.a)
	} else {
		err = c.Request(ctx, o.a)
		got = err == nil
		if errors.Is(err, manager.ErrDenied) {
			err = nil
		}
	}
	d := time.Since(start)
	ph.ops.Add(1)
	if err != nil || got != o.want {
		ph.failed.Add(1)
		ph.mu.Lock()
		if len(ph.errs) < maxErrs {
			kind := "request"
			if o.try {
				kind = "try"
			}
			ph.errs = append(ph.errs, fmt.Sprintf("%s %s: got %v (err %v), want %v", kind, o.a, got, err, o.want))
		}
		ph.mu.Unlock()
		return false, d
	}
	if !o.try && got {
		ph.acked(o.a)
	}
	if ph.recCap > 0 {
		ph.mu.Lock()
		if len(ph.recorded) < ph.recCap {
			ph.recorded = append(ph.recorded, o)
		}
		ph.mu.Unlock()
	}
	return true, d
}

// record files the latency of an op that met the model under its class.
func (ph *phase) record(o op, d time.Duration) {
	if o.try {
		ph.lat.add("try", d)
		return
	}
	ph.lat.add("request", d)
	if ph.classify != nil {
		if cl := ph.classify(o.a); cl != "" {
			ph.lat.add(cl, d)
		}
	}
}

// windows is how many equal windows a closed loop's time is cut into;
// throughput is the median of their rates, so a stall of the machine in
// one window moves it less than it moves a mean over the whole run.
const windows = 10

// closedLoop runs workers callers until d has passed, each sending its
// next op only after the previous reply (a workflow engine waiting on
// the manager). Worker i uses callers[i % len(callers)] and the cycle
// generator gen(i); a cycle is never cut short, so every caller's model
// stays in step with the system. It returns the median over windows of
// the ops completed per second.
func closedLoop(ctx context.Context, callers []caller, workers int, gen func(i int) func() []op, d time.Duration, ph *phase) float64 {
	start := time.Now()
	deadline := start.Add(d)
	w := d / windows
	var done [windows]atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := callers[i%len(callers)]
			next := gen(i)
			for time.Now().Before(deadline) {
				for _, o := range next() {
					ok, d := ph.exec(ctx, c, o)
					if ok {
						ph.record(o, d)
					}
					if k := int(time.Since(start) / w); k < windows {
						done[k].Add(1)
					}
				}
			}
		}(i)
	}
	wg.Wait()
	rates := make([]float64, windows)
	for k := range rates {
		rates[k] = float64(done[k].Load()) / w.Seconds()
	}
	return median(rates)
}

// writeHistory commits hist through managers opened on each shard
// operand of e with opts(dir_i), routed by alphabet, and closes them.
// It returns a reopen function per shard and the steps and state key
// each must recover.
func writeHistory(dir string, sp *spec, hist []op) (reopen []func() (*manager.Manager, error), steps []int, keys []string, err error) {
	e, err := sp.expr()
	if err != nil {
		return nil, nil, nil, err
	}
	parts := cluster.Partition(e)
	alphas := make([]*expr.Alphabet, len(parts))
	for i, part := range parts {
		alphas[i] = expr.AlphabetOf(part)
	}
	idx := manager.NewNameIndex(alphas)
	ms := make([]*manager.Manager, len(parts))
	for i, part := range parts {
		sdir := filepath.Join(dir, fmt.Sprintf("shard%d", i))
		if err := os.MkdirAll(sdir, 0o755); err != nil {
			return nil, nil, nil, err
		}
		opts, err := sp.opts(sdir, nil)
		if err != nil {
			return nil, nil, nil, err
		}
		part := part
		reopen = append(reopen, func() (*manager.Manager, error) {
			o, err := sp.opts(sdir, nil)
			if err != nil {
				return nil, err
			}
			return manager.New(part, o)
		})
		if ms[i], err = manager.New(part, opts); err != nil {
			return nil, nil, nil, err
		}
	}
	// Chunks of 64 writes commit with one durability point each, as
	// concurrent callers would under group commit.
	ctx := context.Background()
	for lo := 0; lo < len(hist); lo += 64 {
		chunk := make([][]expr.Action, len(parts))
		for _, o := range hist[lo:min(lo+64, len(hist))] {
			for _, sh := range idx.Route(o.a) {
				chunk[sh] = append(chunk[sh], o.a)
			}
		}
		for sh, acts := range chunk {
			for i, err := range ms[sh].RequestMany(ctx, acts) {
				if err != nil {
					return nil, nil, nil, fmt.Errorf("history: %s: %w", acts[i], err)
				}
			}
		}
	}
	for _, m := range ms {
		steps = append(steps, m.Steps())
		keys = append(keys, m.StateKey())
		if err := m.Close(); err != nil {
			return nil, nil, nil, err
		}
	}
	return reopen, steps, keys, nil
}

// recovery reopens the stores of a fixed history reps times and returns
// the wall time of each reopen (all shards, verified).
func recovery(reopen []func() (*manager.Manager, error), steps []int, keys []string, reps int) ([]float64, error) {
	var out []float64
	for r := 0; r < reps; r++ {
		start := time.Now()
		var ms []*manager.Manager
		for i, open := range reopen {
			m, err := open()
			if err != nil {
				return nil, fmt.Errorf("recovery: reopen shard %d: %w", i, err)
			}
			ms = append(ms, m)
			if m.Steps() != steps[i] || m.StateKey() != keys[i] {
				return nil, fmt.Errorf("recovery: shard %d reopened with %d steps (want %d) or a different state", i, m.Steps(), steps[i])
			}
		}
		out = append(out, time.Since(start).Seconds())
		for _, m := range ms {
			if err := m.Close(); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// decorate wraps a backend for the traced run.
func decorate(b storage.Backend, p *probes, noCkpt bool) storage.Backend {
	tb := &timedBackend{Backend: b, tr: p.tr, noCkpt: noCkpt}
	p.backends = append(p.backends, tb)
	return tb
}
