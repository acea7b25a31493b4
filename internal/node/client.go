package node

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime/pprof"
	"sync"
	"time"

	"github.com/defragdht/d2/internal/keys"
	"github.com/defragdht/d2/internal/lookupcache"
	"github.com/defragdht/d2/internal/obs"
	"github.com/defragdht/d2/internal/obs/tracing"
	"github.com/defragdht/d2/internal/transport"
)

// ErrNotFound reports a missing block.
var ErrNotFound = errors.New("node: block not found")

// Client reads and writes blocks through the DHT, avoiding lookups with a
// range-keyed lookup cache (§5). One Client serves one user; it is safe
// for concurrent use.
type Client struct {
	tr       transport.Transport
	seeds    []transport.Addr
	replicas int

	mu    sync.Mutex
	cache *lookupcache.Cache[transport.PeerInfo]
	rng   *rand.Rand
	start time.Time

	tracer *tracing.Tracer

	// Metrics live in the registry so Stats() is race-safe and d2ctl can
	// merge a client's view into the cluster-wide one.
	reg        *obs.Registry
	hits       *obs.Counter   // lookup-cache hits (§5)
	misses     *obs.Counter   // lookup-cache misses
	rpcs       *obs.Counter   // every outbound RPC (benchmarks compare read paths by this)
	fanout     *obs.Histogram // owner groups per GetMany
	nfRetries  *obs.Counter   // not-found retries in Get (§8.1 transients)
	lookupHops *obs.Histogram // hops per fresh lookup
	segments   *obs.Counter   // GetSegment calls (fs content reads)
	segRetries *obs.Counter   // per-key segment re-resolves under churn
}

// ClientConfig parameterizes a client.
type ClientConfig struct {
	// Seeds are entry points into the ring (at least one).
	Seeds []transport.Addr
	// Replicas is the cluster's r, used to try secondary replicas on
	// primary failure (default 3).
	Replicas int
	// CacheTTL is the lookup-cache TTL (default 75 min, §5).
	CacheTTL time.Duration
	// Seed drives replica selection.
	Seed uint64
	// Metrics is the client's registry; nil creates a fresh one.
	Metrics *obs.Registry
	// Tracer records request spans for sampled operations; nil disables
	// tracing. NewClient also attaches it to the transport endpoint when
	// the transport supports per-endpoint tracers.
	Tracer *tracing.Tracer
	// Events, when set together with Tracer, receives the slow-request
	// log: a warn event for every operation force-kept by the tracer's
	// slow threshold.
	Events *obs.EventLog
}

// NewClient creates a client using the given transport endpoint.
func NewClient(tr transport.Transport, cfg ClientConfig) (*Client, error) {
	if len(cfg.Seeds) == 0 {
		return nil, errors.New("node: client needs at least one seed")
	}
	if cfg.Replicas == 0 {
		cfg.Replicas = 3
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.New()
	}
	c := &Client{
		tr:         tr,
		seeds:      cfg.Seeds,
		replicas:   cfg.Replicas,
		tracer:     cfg.Tracer,
		cache:      lookupcache.New[transport.PeerInfo](cfg.CacheTTL),
		rng:        rand.New(rand.NewPCG(cfg.Seed, 0x434c4e54)), // "CLNT"
		start:      time.Now(),
		reg:        reg,
		hits:       reg.Counter("d2_client_cache_hits_total"),
		misses:     reg.Counter("d2_client_cache_misses_total"),
		rpcs:       reg.Counter("d2_client_rpcs_total"),
		fanout:     reg.Histogram("d2_client_getmany_fanout", obs.CountBuckets),
		nfRetries:  reg.Counter("d2_client_notfound_retries_total"),
		lookupHops: reg.Histogram("d2_client_lookup_hops", obs.CountBuckets),
		segments:   reg.Counter("d2_client_segments_total"),
		segRetries: reg.Counter("d2_client_segment_retries_total"),
	}
	if cfg.Tracer != nil {
		if ut, ok := tr.(interface{ UseTracer(*tracing.Tracer) }); ok {
			ut.UseTracer(cfg.Tracer)
		}
		if ev := cfg.Events; ev != nil {
			cfg.Tracer.OnSlow(func(root tracing.Span) {
				ev.Log(obs.LevelWarn, "slow.request",
					"op", root.Name,
					"trace", tracing.TraceIDString(root.Trace),
					"dur_ms", root.Dur/1e6)
			})
		}
	}
	// A client is a pure caller; answer anything inbound with an error.
	tr.Serve(func(context.Context, transport.Addr, transport.Message) (transport.Message, error) {
		return nil, errors.New("node: client endpoint serves no requests")
	})
	return c, nil
}

// now returns the cache clock.
func (c *Client) now() time.Duration { return time.Since(c.start) }

// Stats returns the lookup-cache hit and miss counts. The counts are
// atomic registry counters, so Stats is safe to call from any goroutine
// while reads are in flight.
func (c *Client) Stats() (hits, misses uint64) {
	return c.hits.Value(), c.misses.Value()
}

// RPCs returns the total RPCs this client has issued.
func (c *Client) RPCs() uint64 { return c.rpcs.Value() }

// Metrics returns the client's registry.
func (c *Client) Metrics() *obs.Registry { return c.reg }

// Tracer returns the client's request tracer (nil when disabled).
func (c *Client) Tracer() *tracing.Tracer { return c.tracer }

// call issues one counted RPC.
func (c *Client) call(ctx context.Context, to transport.Addr, req transport.Message) (transport.Message, error) {
	c.rpcs.Inc()
	return c.tr.Call(ctx, to, req)
}

// Lookup resolves the owner of key k, from cache when possible. Under a
// trace, a cache hit annotates the active span and a miss opens a lookup
// child span covering the full iterative resolution.
func (c *Client) Lookup(ctx context.Context, k keys.Key) (transport.PeerInfo, error) {
	c.mu.Lock()
	owner, ok := c.cache.Lookup(k, c.now())
	c.mu.Unlock()
	if ok {
		c.hits.Inc()
		if sp := tracing.FromContext(ctx); sp != nil {
			sp.Annotate("cache", "hit")
		}
		return owner, nil
	}
	c.misses.Inc()
	sctx, sp := c.tracer.StartSpan(ctx, "lookup")
	if sp != nil {
		sp.Annotate("cache", "miss", "key", k.Short())
	}
	owner, err := c.freshLookup(sctx, k)
	sp.EndErr(err)
	return owner, err
}

// freshLookup performs a full DHT lookup and caches the owner's range.
// Lookups retry briefly: right after a crash, routing state needs a few
// stabilization rounds to drop the dead node (§8.1: routing failures are
// transient and resolved by retrying after the link repair time). Each
// attempt visits the seeds in a rotated order so one dead seed is not
// hammered first by every client, and attempts are spaced by jittered
// exponential backoff so a burst of failing clients does not retry in
// lockstep.
func (c *Client) freshLookup(ctx context.Context, k keys.Key) (transport.PeerInfo, error) {
	const attempts = 4
	var lastErr error
	backoff := 40 * time.Millisecond
	for attempt := 0; attempt < attempts; attempt++ {
		for _, seed := range c.seedOrder(attempt) {
			owner, pred, err := c.iterLookup(ctx, seed, k)
			if err != nil {
				lastErr = err
				continue
			}
			if !pred.IsZero() {
				c.mu.Lock()
				c.cache.Insert(pred.ID, owner.ID, owner, c.now())
				c.mu.Unlock()
			}
			return owner, nil
		}
		if attempt == attempts-1 {
			break
		}
		c.mu.Lock()
		jitter := time.Duration(c.rng.Int64N(int64(backoff)))
		c.mu.Unlock()
		select {
		case <-ctx.Done():
			return transport.PeerInfo{}, ctx.Err()
		case <-time.After(backoff/2 + jitter):
		}
		backoff *= 2
	}
	return transport.PeerInfo{}, fmt.Errorf("node: lookup failed: %w", lastErr)
}

// seedOrder returns the seed list for one lookup attempt. The first
// attempt uses the configured order; retries rotate by a random offset so
// a seed that just failed (or answered from a stale view) is not the
// first one asked again.
func (c *Client) seedOrder(attempt int) []transport.Addr {
	if attempt == 0 || len(c.seeds) == 1 {
		return c.seeds
	}
	c.mu.Lock()
	off := 1 + c.rng.IntN(len(c.seeds)-1)
	c.mu.Unlock()
	out := make([]transport.Addr, len(c.seeds))
	for i := range c.seeds {
		out[i] = c.seeds[(off+i)%len(c.seeds)]
	}
	return out
}

// iterLookup drives the iterative protocol from a seed. Under a trace,
// each hop is its own child span carrying the hop index and the queried
// node, so a slow lookup shows exactly which hop cost the time.
func (c *Client) iterLookup(ctx context.Context, start transport.Addr, k keys.Key) (owner, pred transport.PeerInfo, err error) {
	cur := start
	for hops := 0; hops < 128; hops++ {
		hctx, hsp := c.tracer.StartSpan(ctx, "lookup.hop")
		if hsp != nil {
			hsp.Annotate("hop", hops, "at", cur)
		}
		resp, err := transport.Expect[*transport.FindSuccResp](
			c.call(hctx, cur, &transport.FindSuccReq{Key: k}))
		hsp.EndErr(err)
		if err != nil {
			return transport.PeerInfo{}, transport.PeerInfo{}, err
		}
		if resp.Done {
			c.lookupHops.Observe(int64(hops + 1))
			return resp.Node, resp.Pred, nil
		}
		if resp.Node.Addr == cur {
			return transport.PeerInfo{}, transport.PeerInfo{}, fmt.Errorf("node: lookup stuck at %s", cur)
		}
		cur = resp.Node.Addr
	}
	return transport.PeerInfo{}, transport.PeerInfo{}, errors.New("node: lookup exceeded hop limit")
}

// invalidate drops the cache entry covering k after a stale hit.
func (c *Client) invalidate(k keys.Key) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cache.Invalidate(k)
}

// opTraced reports whether a client operation begun by StartOp is traced
// (span active or a caller's trace to propagate); untraced operations
// bypass spans and profiler labels entirely.
func opTraced(ctx context.Context, sp *tracing.ActiveSpan) bool {
	return sp != nil || tracing.FromContext(ctx) != nil
}

// Put stores a block with r replicas.
func (c *Client) Put(ctx context.Context, k keys.Key, data []byte) error {
	sctx, sp := c.tracer.StartOp(ctx, "client.put")
	if !opTraced(sctx, sp) {
		return c.put(ctx, k, data)
	}
	var err error
	pprof.Do(sctx, pprof.Labels("d2_op", "client.put"), func(cx context.Context) {
		err = c.put(cx, k, data)
	})
	sp.EndErr(err)
	return err
}

// put is Put without the tracing shell.
func (c *Client) put(ctx context.Context, k keys.Key, data []byte) error {
	owner, err := c.Lookup(ctx, k)
	if err != nil {
		return err
	}
	_, err = transport.Expect[*transport.PutResp](c.call(ctx, owner.Addr, &transport.PutReq{
		Key: k, Data: data, Replicate: true,
	}))
	if err != nil {
		// Stale cache entry or dead node: retry once with a fresh lookup.
		c.invalidate(k)
		owner, err = c.freshLookup(ctx, k)
		if err != nil {
			return err
		}
		_, err = transport.Expect[*transport.PutResp](c.call(ctx, owner.Addr, &transport.PutReq{
			Key: k, Data: data, Replicate: true,
		}))
	}
	return err
}

// Get fetches a block, following pointer redirects and trying secondary
// replicas before falling back to a fresh lookup (§5: stale entries cost
// latency, never correctness). A not-found answer is retried briefly:
// while balance moves resettle ownership, a key can be transiently
// unreadable at its (brand-new) owner even though the block still exists
// in the ring (§8.1 treats such failures as transient and retries them).
func (c *Client) Get(ctx context.Context, k keys.Key) ([]byte, error) {
	sctx, sp := c.tracer.StartOp(ctx, "client.get")
	if !opTraced(sctx, sp) {
		return c.get(ctx, k)
	}
	var data []byte
	var err error
	pprof.Do(sctx, pprof.Labels("d2_op", "client.get"), func(cx context.Context) {
		data, err = c.get(cx, k)
	})
	sp.EndErr(err)
	return data, err
}

// get is Get without the tracing shell.
func (c *Client) get(ctx context.Context, k keys.Key) ([]byte, error) {
	data, err := c.getOnce(ctx, k)
	backoff := 100 * time.Millisecond
	for attempt := 0; attempt < 2 && errors.Is(err, ErrNotFound); attempt++ {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(backoff):
		}
		backoff *= 2
		c.nfRetries.Inc()
		data, err = c.getOnce(ctx, k)
	}
	return data, err
}

// getOnce runs one full read sequence: cached owner, fresh lookup, then
// the owner's replica group.
func (c *Client) getOnce(ctx context.Context, k keys.Key) ([]byte, error) {
	owner, err := c.Lookup(ctx, k)
	if err != nil {
		return nil, err
	}
	data, err := c.getFrom(ctx, owner.Addr, k)
	if err == nil {
		return data, nil
	}
	// Miss or stale: invalidate, re-lookup, and walk the replica group.
	c.invalidate(k)
	owner, lerr := c.freshLookup(ctx, k)
	if lerr != nil {
		return nil, lerr
	}
	data, err = c.getFrom(ctx, owner.Addr, k)
	if err == nil {
		return data, nil
	}
	succs, serr := c.successorsOf(ctx, owner)
	if serr == nil {
		for _, p := range succs {
			if data, gerr := c.getFrom(ctx, p.Addr, k); gerr == nil {
				return data, nil
			}
		}
	}
	return nil, err
}

// getFrom fetches a block from one node, following one pointer redirect.
func (c *Client) getFrom(ctx context.Context, addr transport.Addr, k keys.Key) ([]byte, error) {
	for i := 0; i < 2; i++ {
		resp, err := transport.Expect[*transport.GetResp](
			c.call(ctx, addr, &transport.GetReq{Key: k}))
		if err != nil {
			return nil, err
		}
		if !resp.Found {
			return nil, ErrNotFound
		}
		if resp.Redirect == "" {
			return resp.Data, nil
		}
		addr = resp.Redirect
	}
	return nil, fmt.Errorf("node: pointer chain too long for %s", k.Short())
}

// successorsOf fetches the replica group following the owner.
func (c *Client) successorsOf(ctx context.Context, owner transport.PeerInfo) ([]transport.PeerInfo, error) {
	resp, err := transport.Expect[*transport.NeighborsResp](
		c.call(ctx, owner.Addr, &transport.NeighborsReq{}))
	if err != nil {
		return nil, err
	}
	n := c.replicas - 1
	if n > len(resp.Succs) {
		n = len(resp.Succs)
	}
	return resp.Succs[:n], nil
}

// Remove deletes a block (and its replicas) after the node-side delay.
func (c *Client) Remove(ctx context.Context, k keys.Key) error {
	sctx, sp := c.tracer.StartOp(ctx, "client.remove")
	if !opTraced(sctx, sp) {
		return c.remove(ctx, k)
	}
	var err error
	pprof.Do(sctx, pprof.Labels("d2_op", "client.remove"), func(cx context.Context) {
		err = c.remove(cx, k)
	})
	sp.EndErr(err)
	return err
}

// remove is Remove without the tracing shell.
func (c *Client) remove(ctx context.Context, k keys.Key) error {
	owner, err := c.Lookup(ctx, k)
	if err != nil {
		return err
	}
	_, err = transport.Expect[*transport.RemoveResp](c.call(ctx, owner.Addr, &transport.RemoveReq{
		Key: k, Replicate: true,
	}))
	if err != nil {
		c.invalidate(k)
		owner, err = c.freshLookup(ctx, k)
		if err != nil {
			return err
		}
		_, err = transport.Expect[*transport.RemoveResp](c.call(ctx, owner.Addr, &transport.RemoveReq{
			Key: k, Replicate: true,
		}))
	}
	return err
}

// Close releases the client endpoint.
func (c *Client) Close() error { return c.tr.Close() }
