package main

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/defragdht/d2/internal/fs"
	"github.com/defragdht/d2/internal/keys"
	"github.com/defragdht/d2/internal/obs/tracing"
	"github.com/defragdht/d2/internal/store"
	"github.com/defragdht/d2/internal/transport"
)

// The traced run wraps each layer's public interface and records one span
// per call into it. Links come from three places:
//   - the context, for calls made on the caller's goroutine chain (op →
//     block service → client transport call, and node handler → the
//     node's own outbound calls, which forwardToReplicas derives from
//     the handler's context);
//   - a table of outstanding transport calls keyed by (caller, callee,
//     message type, first key), which a handler claims when the request
//     arrives, since the wire carries no benchmark state;
//   - the handler's goroutine, for store.Engine calls, which take no
//     context but run synchronously inside the handler.
// A nil *recorder means an untraced run: every wrap method then returns
// the program's own value, so no wrapper is installed at all.

type spanKind uint8

const (
	kindOp     spanKind = iota // one user operation, timed by the workload
	kindSvc                    // fs → node.Client (fs.SegmentBlockService)
	kindCall                   // transport.Transport.Call, client or node side
	kindHandle                 // the handler a node passed to Serve
	kindStore                  // store.Engine under a node
)

// clientEndpoint is the endpoint index of the client; nodes are 0..n-1.
const clientEndpoint = -1

type span struct {
	ID, Parent int64
	Kind       spanKind
	Name       string
	Node       int    // endpoint that recorded the span
	Peer       string // call: callee address; handle: caller address
	Bytes      int64  // payload bytes moved by a block-service call
	Start, End int64  // nanoseconds since the recorder's epoch
	Err        bool
}

func (s span) dur() int64 { return s.End - s.Start }

type ctxKey struct{}

func parentOf(ctx context.Context) int64 {
	id, _ := ctx.Value(ctxKey{}).(int64)
	return id
}

func withSpan(ctx context.Context, id int64) context.Context {
	return context.WithValue(ctx, ctxKey{}, id)
}

// callKey identifies an outstanding transport call so the callee's
// handler can claim it as parent.
type callKey struct {
	from, to transport.Addr
	name     string
	fp       keys.Key
}

// fingerprint picks the request field that tells concurrent calls of one
// type apart; calls without one are claimed in arrival order.
func fingerprint(m transport.Message) keys.Key {
	switch r := m.(type) {
	case *transport.PutReq:
		return r.Key
	case *transport.GetReq:
		return r.Key
	case *transport.RemoveReq:
		return r.Key
	case *transport.FindSuccReq:
		return r.Key
	case *transport.MultiGetReq:
		if len(r.Keys) > 0 {
			return r.Keys[0]
		}
	}
	return keys.Key{}
}

// recorder keeps every finished span in memory until the run ends.
type recorder struct {
	epoch  time.Time
	next   atomic.Int64
	cutoff atomic.Int64 // spans starting earlier are not kept

	mu      sync.Mutex
	spans   []span
	pending map[callKey][]int64
	active  map[uint64]int64 // goroutine → the handler span it runs
}

func newRecorder() *recorder {
	return &recorder{
		epoch:   time.Now(),
		pending: make(map[callKey][]int64),
		active:  make(map[uint64]int64),
	}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) start(parent int64, k spanKind, name string, node int) span {
	return span{ID: r.next.Add(1), Parent: parent, Kind: k, Name: name, Node: node, Start: r.now()}
}

func (r *recorder) finish(s span, err error) {
	s.End = r.now()
	s.Err = err != nil
	if s.Start < r.cutoff.Load() {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// mark drops everything recorded so far (set-up traffic) and keeps only
// spans that start from now on.
func (r *recorder) mark() {
	r.cutoff.Store(r.now())
	r.mu.Lock()
	r.spans = r.spans[:0]
	r.mu.Unlock()
}

// take returns the spans recorded since mark.
func (r *recorder) take() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// op opens a user-operation span; nil-safe so workloads call it
// unconditionally.
func (r *recorder) op(ctx context.Context, name string) (context.Context, span) {
	if r == nil {
		return ctx, span{}
	}
	s := r.start(0, kindOp, name, clientEndpoint)
	return withSpan(ctx, s.ID), s
}

func (r *recorder) endOp(s span, bytes int64, err error) {
	if r == nil {
		return
	}
	s.Bytes = bytes
	r.finish(s, err)
}

func (r *recorder) expect(k callKey, id int64) {
	r.mu.Lock()
	r.pending[k] = append(r.pending[k], id)
	r.mu.Unlock()
}

// claim hands the oldest outstanding call matching k to its handler.
func (r *recorder) claim(k callKey) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	ids := r.pending[k]
	if len(ids) == 0 {
		return 0
	}
	if len(ids) == 1 {
		delete(r.pending, k)
	} else {
		r.pending[k] = ids[1:]
	}
	return ids[0]
}

// unexpect forgets a call whose handler never claimed it (the call failed
// before reaching the peer).
func (r *recorder) unexpect(k callKey, id int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ids := r.pending[k]
	for i, x := range ids {
		if x == id {
			ids = append(ids[:i:i], ids[i+1:]...)
			break
		}
	}
	if len(ids) == 0 {
		delete(r.pending, k)
	} else {
		r.pending[k] = ids
	}
}

func (r *recorder) enter(gid uint64, id int64) {
	r.mu.Lock()
	r.active[gid] = id
	r.mu.Unlock()
}

func (r *recorder) leave(gid uint64) {
	r.mu.Lock()
	delete(r.active, gid)
	r.mu.Unlock()
}

func (r *recorder) handlerOf(gid uint64) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.active[gid]
}

// goid returns the calling goroutine's id, parsed from the first line of
// its stack trace ("goroutine 123 [running]:").
func goid() uint64 {
	var buf [40]byte
	n := runtime.Stack(buf[:], false)
	var id uint64
	for _, c := range buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

// --- fs.SegmentBlockService under *fs.Volume ---

func (r *recorder) wrapService(c fs.SegmentBlockService) fs.SegmentBlockService {
	if r == nil {
		return c
	}
	return &tracedService{inner: c, rec: r}
}

type tracedService struct {
	inner fs.SegmentBlockService
	rec   *recorder
}

func (t *tracedService) begin(ctx context.Context, name string) (context.Context, span) {
	s := t.rec.start(parentOf(ctx), kindSvc, name, clientEndpoint)
	return withSpan(ctx, s.ID), s
}

func (t *tracedService) Put(ctx context.Context, k keys.Key, data []byte) error {
	ctx, s := t.begin(ctx, "put")
	err := t.inner.Put(ctx, k, data)
	s.Bytes = int64(len(data))
	t.rec.finish(s, err)
	return err
}

func (t *tracedService) Get(ctx context.Context, k keys.Key) ([]byte, error) {
	ctx, s := t.begin(ctx, "get")
	data, err := t.inner.Get(ctx, k)
	s.Bytes = int64(len(data))
	t.rec.finish(s, err)
	return data, err
}

func (t *tracedService) Remove(ctx context.Context, k keys.Key) error {
	ctx, s := t.begin(ctx, "remove")
	err := t.inner.Remove(ctx, k)
	t.rec.finish(s, err)
	return err
}

func (t *tracedService) GetMany(ctx context.Context, ks []keys.Key) (map[keys.Key][]byte, error) {
	ctx, s := t.begin(ctx, "getmany")
	out, err := t.inner.GetMany(ctx, ks)
	s.Bytes = mapBytes(out)
	t.rec.finish(s, err)
	return out, err
}

func (t *tracedService) GetSegment(ctx context.Context, ks []keys.Key) (map[keys.Key][]byte, error) {
	ctx, s := t.begin(ctx, "getsegment")
	out, err := t.inner.GetSegment(ctx, ks)
	s.Bytes = mapBytes(out)
	t.rec.finish(s, err)
	return out, err
}

func mapBytes(m map[keys.Key][]byte) int64 {
	var n int64
	for _, b := range m {
		n += int64(len(b))
	}
	return n
}

// --- transport.Transport under node.Client and every node.Node ---

func (r *recorder) wrapTransport(tr transport.Transport, node int) transport.Transport {
	if r == nil {
		return tr
	}
	return &tracedTransport{inner: tr, rec: r, node: node}
}

type tracedTransport struct {
	inner transport.Transport
	rec   *recorder
	node  int
}

func (t *tracedTransport) Addr() transport.Addr { return t.inner.Addr() }
func (t *tracedTransport) Close() error         { return t.inner.Close() }

// UseTracer forwards the per-endpoint tracer node.Start and
// node.NewClient attach when the transport supports one.
func (t *tracedTransport) UseTracer(tr *tracing.Tracer) {
	if ut, ok := t.inner.(interface{ UseTracer(*tracing.Tracer) }); ok {
		ut.UseTracer(tr)
	}
}

func (t *tracedTransport) Call(ctx context.Context, to transport.Addr, req transport.Message) (transport.Message, error) {
	s := t.rec.start(parentOf(ctx), kindCall, transport.RPCName(req), t.node)
	s.Peer = string(to)
	k := callKey{from: t.inner.Addr(), to: to, name: s.Name, fp: fingerprint(req)}
	t.rec.expect(k, s.ID)
	resp, err := t.inner.Call(ctx, to, req)
	t.rec.unexpect(k, s.ID)
	t.rec.finish(s, err)
	return resp, err
}

func (t *tracedTransport) Serve(h transport.Handler) {
	t.inner.Serve(func(ctx context.Context, from transport.Addr, req transport.Message) (transport.Message, error) {
		name := transport.RPCName(req)
		parent := t.rec.claim(callKey{from: from, to: t.inner.Addr(), name: name, fp: fingerprint(req)})
		s := t.rec.start(parent, kindHandle, name, t.node)
		s.Peer = string(from)
		gid := goid()
		t.rec.enter(gid, s.ID)
		resp, err := h(withSpan(ctx, s.ID), from, req)
		t.rec.leave(gid)
		t.rec.finish(s, err)
		return resp, err
	})
}

// --- store.Engine under each node ---

func (r *recorder) wrapEngine(e store.Engine, node int) store.Engine {
	if r == nil {
		return e
	}
	t := &tracedEngine{inner: e, rec: r, node: node}
	// The node type-asserts store.IdentityStore; forward it only when the
	// engine has it, so the wrapped node takes the same branch.
	if is, ok := e.(store.IdentityStore); ok {
		return &tracedIdentityEngine{tracedEngine: t, id: is}
	}
	return t
}

type tracedEngine struct {
	inner store.Engine
	rec   *recorder
	node  int
}

type tracedIdentityEngine struct {
	*tracedEngine
	id store.IdentityStore
}

func (e *tracedIdentityEngine) LoadIdentity() (keys.Key, bool) { return e.id.LoadIdentity() }
func (e *tracedIdentityEngine) SaveIdentity(k keys.Key) error  { return e.id.SaveIdentity(k) }

func (e *tracedEngine) begin(name string) span {
	return e.rec.start(e.rec.handlerOf(goid()), kindStore, name, e.node)
}

func (e *tracedEngine) Put(k keys.Key, data []byte, ttl time.Duration, now time.Time) {
	s := e.begin("put")
	e.inner.Put(k, data, ttl, now)
	e.rec.finish(s, nil)
}

func (e *tracedEngine) PutPointer(k keys.Key, target transport.Addr, size int64, now time.Time) {
	s := e.begin("putpointer")
	e.inner.PutPointer(k, target, size, now)
	e.rec.finish(s, nil)
}

func (e *tracedEngine) Get(k keys.Key) (*store.Block, bool) {
	s := e.begin("get")
	b, ok := e.inner.Get(k)
	e.rec.finish(s, nil)
	return b, ok
}

func (e *tracedEngine) GetBatch(ks []keys.Key) []*store.Block {
	s := e.begin("getbatch")
	out := e.inner.GetBatch(ks)
	e.rec.finish(s, nil)
	return out
}

func (e *tracedEngine) Delete(k keys.Key) bool {
	s := e.begin("delete")
	ok := e.inner.Delete(k)
	e.rec.finish(s, nil)
	return ok
}

func (e *tracedEngine) Refresh(k keys.Key, ttl time.Duration, now time.Time) bool {
	s := e.begin("refresh")
	ok := e.inner.Refresh(k, ttl, now)
	e.rec.finish(s, nil)
	return ok
}

func (e *tracedEngine) SweepExpired(now time.Time) int {
	s := e.begin("sweepexpired")
	n := e.inner.SweepExpired(now)
	e.rec.finish(s, nil)
	return n
}

func (e *tracedEngine) Arc(lo, hi keys.Key) []store.Item {
	s := e.begin("arc")
	out := e.inner.Arc(lo, hi)
	e.rec.finish(s, nil)
	return out
}

func (e *tracedEngine) ArcLimit(lo, hi keys.Key, limit int) ([]store.Item, bool) {
	s := e.begin("arclimit")
	out, more := e.inner.ArcLimit(lo, hi, limit)
	e.rec.finish(s, nil)
	return out, more
}

func (e *tracedEngine) ArcBytes(lo, hi keys.Key) int64 {
	s := e.begin("arcbytes")
	n := e.inner.ArcBytes(lo, hi)
	e.rec.finish(s, nil)
	return n
}

func (e *tracedEngine) ArcVisit(lo, hi keys.Key, fn func(k keys.Key, m store.Meta) bool) {
	s := e.begin("arcvisit")
	e.inner.ArcVisit(lo, hi, fn)
	e.rec.finish(s, nil)
}

func (e *tracedEngine) MedianKey(lo, hi keys.Key) (keys.Key, bool) {
	s := e.begin("mediankey")
	k, ok := e.inner.MedianKey(lo, hi)
	e.rec.finish(s, nil)
	return k, ok
}

func (e *tracedEngine) StalePointers(deadline time.Time) []store.Item {
	s := e.begin("stalepointers")
	out := e.inner.StalePointers(deadline)
	e.rec.finish(s, nil)
	return out
}

func (e *tracedEngine) Keys() []keys.Key {
	s := e.begin("keys")
	out := e.inner.Keys()
	e.rec.finish(s, nil)
	return out
}

func (e *tracedEngine) Len() int {
	s := e.begin("len")
	n := e.inner.Len()
	e.rec.finish(s, nil)
	return n
}

func (e *tracedEngine) Bytes() int64 {
	s := e.begin("bytes")
	n := e.inner.Bytes()
	e.rec.finish(s, nil)
	return n
}

func (e *tracedEngine) Flush() error {
	s := e.begin("flush")
	err := e.inner.Flush()
	e.rec.finish(s, err)
	return err
}

func (e *tracedEngine) Close() error {
	s := e.begin("close")
	err := e.inner.Close()
	e.rec.finish(s, err)
	return err
}
