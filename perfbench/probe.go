package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/expr"
	"repro/internal/manager"
	"repro/internal/storage"
)

// span is one timed call at a layer boundary. Spans of one request share
// req; parent is the index of the span that caused this one, -1 for a
// root.
type span struct {
	name       string
	req        uint64
	parent     int32
	start, end int64 // ns since the tracer's epoch
}

// maxSpans bounds the tracer's memory; spans beyond it are counted, not
// kept.
const maxSpans = 1 << 20

// tracer keeps spans in memory until the run ends. A storage call, which
// carries no context, finds its parent in the request the serial replay
// has open. Across a wire hop a server-side span finds its parent by the
// action it serves, or by the ticket an earlier ask returned. Spans of
// the concurrent traced phase have no replay request open and stay
// unparented.
type tracer struct {
	epoch time.Time

	mu      sync.Mutex
	spans   []span
	dropped int
	cur     int32            // open request of the serial replay, -1 if none
	links   map[string]int32 // action or ticket key → span awaiting the hop
	nextReq uint64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), cur: -1, links: make(map[string]int32)}
}

// begin opens a span. A nil tracer is a no-op, so decorators in untraced
// runs cost one branch.
func (t *tracer) begin(name string, req uint64, parent int32) int32 {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{name: name, req: req, parent: parent, start: now})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// root opens the span of a new request in the serial replay and makes it
// the parent of storage calls and of server-side spans linked by key.
func (t *tracer) root(name, key string) int32 {
	t.mu.Lock()
	t.nextReq++
	req := t.nextReq
	t.mu.Unlock()
	id := t.begin(name, req, -1)
	t.mu.Lock()
	t.cur = id
	if key != "" {
		t.links[key] = id
	}
	t.mu.Unlock()
	return id
}

// finish closes a root span opened by root.
func (t *tracer) finish(id int32, key string) {
	t.end(id)
	t.mu.Lock()
	t.cur = -1
	if key != "" {
		delete(t.links, key)
	}
	t.mu.Unlock()
}

// child opens a span under the span a key links to (or under the open
// replay request when the key is unknown).
func (t *tracer) child(name, key string) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	parent, ok := t.links[key]
	if !ok {
		parent = t.cur
	}
	var req uint64
	if parent >= 0 {
		req = t.spans[parent].req
	}
	t.mu.Unlock()
	return t.begin(name, req, parent)
}

// link makes key resolve to span id (a ticket returned by an ask, so the
// confirm that settles it finds the same request).
func (t *tracer) link(key string, id int32) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.links[key] = t.spans[id].parent
	t.mu.Unlock()
}

func (t *tracer) unlink(key string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	delete(t.links, key)
	t.mu.Unlock()
}

func (t *tracer) dur(id int32) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return time.Duration(t.spans[id].end - t.spans[id].start)
}

// self returns each span's self time: its duration minus the part of its
// interval that its children cover.
func (t *tracer) self() []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int32][]int32)
	for i, s := range t.spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], int32(i))
		}
	}
	out := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		ks := kids[int32(i)]
		sort.Slice(ks, func(a, b int) bool { return t.spans[ks[a]].start < t.spans[ks[b]].start })
		covered, reach := int64(0), s.start
		for _, k := range ks {
			lo, hi := max(t.spans[k].start, reach), min(t.spans[k].end, s.end)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[i] = time.Duration(s.end - s.start - covered)
	}
	return out
}

// spansNamed returns the durations of every closed span with the name;
// with linked set, only of those linked to a request of the replay.
func (t *tracer) spansNamed(name string, linked bool) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var xs []float64
	for _, s := range t.spans {
		if s.name == name && s.end > 0 && (!linked || s.parent >= 0) {
			xs = append(xs, float64(s.end-s.start))
		}
	}
	return xs
}

// write saves the spans as CSV (name,req,parent,start_ns,end_ns).
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	t.mu.Lock()
	fmt.Fprintln(w, "name,req,parent,start_ns,end_ns")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%s,%d,%d,%d,%d\n", s.name, s.req, s.parent, s.start, s.end)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// --- storage.Backend decorator -------------------------------------------

// timedBackend times every call of the backend a manager is handed
// through Options.Storage, and counts syncs.
type timedBackend struct {
	storage.Backend
	tr         *tracer
	noCkpt     bool // the backend stores no checkpoints; see SaveCheckpoint
	syncs      atomic.Int64
	mu         sync.Mutex
	durability []float64 // ns of each Append, Commit and Sync
}

// timed runs f under a span; a durability point also records its time.
func (b *timedBackend) timed(name string, durability bool, f func() error) error {
	id := b.tr.child(name, "")
	start := time.Now()
	err := f()
	d := time.Since(start)
	b.tr.end(id)
	if durability {
		b.mu.Lock()
		b.durability = append(b.durability, float64(d))
		b.mu.Unlock()
	}
	return err
}

func (b *timedBackend) Append(e storage.Entry) error {
	return b.timed("storage.append", true, func() error { return b.Backend.Append(e) })
}

func (b *timedBackend) Commit(sync bool) error {
	if sync {
		b.syncs.Add(1)
	}
	return b.timed("storage.commit", true, func() error { return b.Backend.Commit(sync) })
}

func (b *timedBackend) Sync() error {
	b.syncs.Add(1)
	return b.timed("storage.sync", true, b.Backend.Sync)
}

// SaveCheckpoint times a checkpoint. A manager asks a backend handed in
// through Options.Storage for checkpoints unconditionally, but a
// monolith log opened without a snapshot file stores none (the manager
// opening it from LogPath never asks). For such a backend the decorator
// declines the same way: it saves nothing and, in CompactThrough, keeps
// the log whole, so recovery replays the full log exactly as it does
// without the decorator.
func (b *timedBackend) SaveCheckpoint(c storage.Checkpoint) error {
	if b.noCkpt {
		return nil
	}
	return b.timed("storage.checkpoint", false, func() error { return b.Backend.SaveCheckpoint(c) })
}

func (b *timedBackend) CompactThrough(seq uint64) error {
	if b.noCkpt {
		return nil
	}
	return b.Backend.CompactThrough(seq)
}

func (b *timedBackend) samples() []float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]float64(nil), b.durability...)
}

// --- net.Conn decorator ---------------------------------------------------

// connCounts counts the traffic of every connection a dialer opened.
type connCounts struct {
	writes, bytesOut, bytesIn atomic.Int64
}

type countingConn struct {
	net.Conn
	c *connCounts
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.c.writes.Add(1)
	c.c.bytesOut.Add(int64(n))
	return n, err
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.c.bytesIn.Add(int64(n))
	return n, err
}

// dialer returns a TCP dialer whose connections count into c.
func (c *connCounts) dialer() func(string) (net.Conn, error) {
	return func(addr string) (net.Conn, error) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		return countingConn{Conn: conn, c: c}, nil
	}
}

// --- manager.Coordinator decorator ----------------------------------------

// tracedCoord sits between a wire server and the coordinator it serves
// (a shard manager, a follower, or the gateway): every call becomes a
// span linked to the caller's span by action or ticket. It forwards the
// replication surface so followers keep receiving frames, and counts
// commits and applied frames.
type tracedCoord struct {
	manager.Coordinator
	rt      manager.ReplicaTarget // nil when the coordinator has none
	name    string                // span prefix, e.g. "primary0"
	tr      *tracer
	commits atomic.Int64 // writes this coordinator committed
	applies atomic.Int64 // replication frames applied
}

func newTracedCoord(co manager.Coordinator, name string, tr *tracer) *tracedCoord {
	rt, _ := co.(manager.ReplicaTarget)
	return &tracedCoord{Coordinator: co, rt: rt, name: name, tr: tr}
}

func (c *tracedCoord) ticketKey(t manager.Ticket) string {
	return c.name + "#" + strconv.FormatUint(uint64(t), 10)
}

func (c *tracedCoord) Ask(ctx context.Context, a expr.Action) (manager.Ticket, error) {
	id := c.tr.child(c.name+".ask", a.String())
	t, err := c.Coordinator.Ask(ctx, a)
	c.tr.end(id)
	if err == nil {
		c.tr.link(c.ticketKey(t), id)
	}
	return t, err
}

func (c *tracedCoord) Confirm(ctx context.Context, t manager.Ticket) error {
	id := c.tr.child(c.name+".confirm", c.ticketKey(t))
	err := c.Coordinator.Confirm(ctx, t)
	c.tr.end(id)
	c.tr.unlink(c.ticketKey(t))
	if err == nil {
		c.commits.Add(1)
	}
	return err
}

func (c *tracedCoord) Abort(ctx context.Context, t manager.Ticket) error {
	id := c.tr.child(c.name+".abort", c.ticketKey(t))
	err := c.Coordinator.Abort(ctx, t)
	c.tr.end(id)
	c.tr.unlink(c.ticketKey(t))
	return err
}

func (c *tracedCoord) Request(ctx context.Context, a expr.Action) error {
	id := c.tr.child(c.name+".request", a.String())
	err := c.Coordinator.Request(ctx, a)
	c.tr.end(id)
	if err == nil {
		c.commits.Add(1)
	}
	return err
}

func (c *tracedCoord) Try(ctx context.Context, a expr.Action) (bool, error) {
	id := c.tr.child(c.name+".try", a.String())
	ok, err := c.Coordinator.Try(ctx, a)
	c.tr.end(id)
	return ok, err
}

// errNoReplication answers replication ops sent to a coordinator
// without a replication surface (the gateway).
var errNoReplication = errors.New("perfbench: coordinator does not replicate")

func (c *tracedCoord) ApplyReplicated(ctx context.Context, f manager.ReplFrame) (manager.ReplStatus, error) {
	if c.rt == nil {
		return manager.ReplStatus{}, errNoReplication
	}
	key := ""
	if len(f.Actions) > 0 {
		key = f.Actions[0].String()
	}
	id := c.tr.child(c.name+".apply", key)
	st, err := c.rt.ApplyReplicated(ctx, f)
	c.tr.end(id)
	if err == nil {
		c.applies.Add(1)
	}
	return st, err
}

func (c *tracedCoord) InstallReplSnapshot(ctx context.Context, s manager.ReplSnapshot) (manager.ReplStatus, error) {
	if c.rt == nil {
		return manager.ReplStatus{}, errNoReplication
	}
	return c.rt.InstallReplSnapshot(ctx, s)
}

func (c *tracedCoord) Promote(ctx context.Context) (uint64, error) {
	if c.rt == nil {
		return 0, errNoReplication
	}
	return c.rt.Promote(ctx)
}

func (c *tracedCoord) ReplStatus(ctx context.Context) (manager.ReplStatus, error) {
	if c.rt == nil {
		return manager.ReplStatus{}, errNoReplication
	}
	return c.rt.ReplStatus(ctx)
}
