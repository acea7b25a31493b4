package node

import (
	"context"
	"errors"
	"runtime/pprof"
	"sort"
	"sync"

	"github.com/defragdht/d2/internal/keys"
	"github.com/defragdht/d2/internal/transport"
)

// batchFanout bounds the concurrent per-owner RPCs a single GetMany
// issues.
const batchFanout = 8

// maxBatchKeys caps the keys in one MultiGet RPC. With D2's contiguous
// file keys a whole file often resolves to ONE owner, so an uncapped
// batch for a 64 MB file would ask for a 64 MB response — past the
// transport's frame cap. 1024 full blocks ≈ 8 MB per response, an 8×
// margin, and the chunks pipeline across the fan-out semaphore anyway.
const maxBatchKeys = 1024

// ownerGroup is a run of sorted keys resolving to one owner.
type ownerGroup struct {
	owner transport.PeerInfo
	keys  []keys.Key
}

// GetMany fetches a batch of blocks with as few RPCs as the placement
// allows: keys are sorted, partitioned into runs by cached owner range
// (§5 — for D2's contiguous file keys one partition covers a whole file),
// and each owner is sent one MultiGet, with bounded fan-out across
// owners. Keys the batch path cannot resolve (stale cache, pointer
// chains, missing primaries) fall back to the per-key Get path with its
// replica walk. The result maps each found key to its data; absent keys
// are simply omitted. Duplicate keys are fetched once.
func (c *Client) GetMany(ctx context.Context, ks []keys.Key) (map[keys.Key][]byte, error) {
	sctx, sp := c.tracer.StartOp(ctx, "client.get_many")
	if !opTraced(sctx, sp) {
		return c.getMany(ctx, ks)
	}
	sp.Annotate("keys", len(ks))
	var out map[keys.Key][]byte
	var err error
	pprof.Do(sctx, pprof.Labels("d2_op", "client.get_many"), func(cx context.Context) {
		out, err = c.getMany(cx, ks)
	})
	sp.EndErr(err)
	return out, err
}

// getMany is GetMany without the tracing shell.
func (c *Client) getMany(ctx context.Context, ks []keys.Key) (map[keys.Key][]byte, error) {
	out := make(map[keys.Key][]byte, len(ks))
	if len(ks) == 0 {
		return out, nil
	}
	sorted := append([]keys.Key(nil), ks...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Less(sorted[j]) })
	dedup := sorted[:1]
	for _, k := range sorted[1:] {
		if !k.Equal(dedup[len(dedup)-1]) {
			dedup = append(dedup, k)
		}
	}
	groups, err := c.groupByOwner(ctx, dedup)
	if err != nil {
		return nil, err
	}
	c.fanout.Observe(int64(len(groups)))
	// Split oversized groups into frame-safe chunks (see maxBatchKeys);
	// each chunk is its own RPC, running under the same fan-out bound.
	var chunked []ownerGroup
	for _, g := range groups {
		for len(g.keys) > maxBatchKeys {
			chunked = append(chunked, ownerGroup{owner: g.owner, keys: g.keys[:maxBatchKeys]})
			g.keys = g.keys[maxBatchKeys:]
		}
		chunked = append(chunked, g)
	}
	groups = chunked

	var (
		mu       sync.Mutex
		fallback []keys.Key
		wg       sync.WaitGroup
	)
	sem := make(chan struct{}, batchFanout)
	for _, g := range groups {
		wg.Add(1)
		go func(g ownerGroup) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			// One span per owner group: the unit of batching the §5 key
			// scheme optimizes for. Each goroutine derives its own child
			// from the op span, so concurrent groups never share a parent
			// pointer across goroutines.
			gctx, gsp := c.tracer.StartSpan(ctx, "batch.group")
			if gsp != nil {
				gsp.Annotate("owner", g.owner.Addr, "keys", len(g.keys))
			}
			found, missed := c.multiGet(gctx, g)
			if gsp != nil && len(missed) > 0 {
				gsp.Annotate("fallback", len(missed))
			}
			gsp.End()
			mu.Lock()
			for k, data := range found {
				out[k] = data
			}
			fallback = append(fallback, missed...)
			mu.Unlock()
		}(g)
	}
	wg.Wait()

	for _, k := range fallback {
		data, err := c.Get(ctx, k)
		if errors.Is(err, ErrNotFound) {
			continue
		}
		if err != nil {
			return out, err
		}
		out[k] = data
	}
	return out, nil
}

// groupByOwner partitions sorted keys into per-owner runs. Consecutive
// keys usually hit the same cached range, so this costs one lookup per
// distinct owner, not per key.
func (c *Client) groupByOwner(ctx context.Context, sorted []keys.Key) ([]ownerGroup, error) {
	var groups []ownerGroup
	for _, k := range sorted {
		owner, err := c.Lookup(ctx, k)
		if err != nil {
			return nil, err
		}
		if n := len(groups); n > 0 && groups[n-1].owner.Addr == owner.Addr {
			groups[n-1].keys = append(groups[n-1].keys, k)
			continue
		}
		groups = append(groups, ownerGroup{owner: owner, keys: []keys.Key{k}})
	}
	return groups, nil
}

// multiGet issues one MultiGet to a group's owner, chasing pointer
// redirects. It returns the resolved blocks and the keys that need the
// per-key fallback.
func (c *Client) multiGet(ctx context.Context, g ownerGroup) (found map[keys.Key][]byte, missed []keys.Key) {
	found = make(map[keys.Key][]byte, len(g.keys))
	resp, err := transport.Expect[*transport.MultiGetResp](
		c.call(ctx, g.owner.Addr, &transport.MultiGetReq{Keys: g.keys}))
	if err != nil || len(resp.Items) != len(g.keys) {
		// Dead or stale owner: drop its cached range and let the
		// fallback path re-resolve every key.
		for _, k := range g.keys {
			c.invalidate(k)
		}
		return found, g.keys
	}
	for i, it := range resp.Items {
		k := g.keys[i]
		switch {
		case !it.Found:
			missed = append(missed, k)
		case it.Redirect != "":
			if data, gerr := c.getFrom(ctx, it.Redirect, k); gerr == nil {
				found[k] = data
			} else {
				missed = append(missed, k)
			}
		default:
			found[k] = it.Data
		}
	}
	return found, missed
}
