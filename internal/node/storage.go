package node

import (
	"context"
	"strconv"
	"time"

	"github.com/defragdht/d2/internal/fs"
	"github.com/defragdht/d2/internal/keys"
	"github.com/defragdht/d2/internal/obs"
	"github.com/defragdht/d2/internal/obs/tracing"
	"github.com/defragdht/d2/internal/store"
	"github.com/defragdht/d2/internal/transport"
)

// handlePut stores a replica; when Replicate is set (the primary's copy),
// the block is forwarded to the r-1 following successors. A refused
// root put (an older root) is acknowledged but not forwarded. A put
// cancels any delayed removal pending for its key: the writer wants the
// block again (an overwrite that kept an unchanged block, or a revert
// to earlier content), and the old timer would delete the new copy.
func (n *Node) handlePut(ctx context.Context, r *transport.PutReq) transport.Message {
	ttl := time.Duration(r.TTL) * time.Second
	if ttl == 0 {
		ttl = n.cfg.DefaultTTL
	}
	n.cancelRemoval(r.Key)
	data, ok := n.store(ctx, r.Key, r.Data, ttl, r.Replicate)
	if !ok {
		return &transport.PutResp{}
	}
	if r.Replicate {
		n.forwardToReplicas(ctx, &transport.PutReq{Key: r.Key, Data: data, TTL: r.TTL})
	}
	return &transport.PutResp{}
}

// store puts block data and returns what it stored. A version-0 key is
// the in-place volume root (§3), which a put must never roll back: a
// held root that fs.NewerRoot ranks newer than the incoming one stays
// (store reports false), and a primary put that finds no root here
// stores the newest of its own and its successors' copies — a new owner
// can be handed an older root while its successors hold the newer one.
func (n *Node) store(ctx context.Context, k keys.Key, data []byte, ttl time.Duration, primary bool) ([]byte, bool) {
	if k.Version() != 0 {
		n.st.Put(k, data, ttl, time.Now())
		return data, true
	}
	if primary {
		if held, ok := n.st.Get(k); !ok || held.IsPointer() {
			data = n.newestRoot(ctx, k, data)
		}
	}
	n.inPlaceMu.Lock()
	defer n.inPlaceMu.Unlock()
	if held, ok := n.st.Get(k); ok && !held.IsPointer() && !fs.NewerRoot(k, held.Data, data) {
		n.metrics.staleRefused.Inc()
		return nil, false
	}
	n.st.Put(k, data, ttl, time.Now())
	return data, true
}

// newestRoot returns the newest of data and the replica successors'
// copies of root key k.
func (n *Node) newestRoot(ctx context.Context, k keys.Key, data []byte) []byte {
	for _, p := range n.replicaTargets() {
		resp, err := transport.Expect[*transport.GetResp](n.call(ctx, p.Addr, &transport.GetReq{Key: k}))
		if err == nil && resp.Found && resp.Redirect == "" && !fs.NewerRoot(k, resp.Data, data) {
			data = resp.Data
		}
	}
	return data
}

// handleGet serves a block, redirecting when only a pointer is held.
func (n *Node) handleGet(ctx context.Context, r *transport.GetReq) transport.Message {
	b, ok := n.st.Get(r.Key)
	if !ok {
		return &transport.GetResp{Found: false}
	}
	if b.IsPointer() {
		n.metrics.ptrRedirects.Inc()
		tracing.FromContext(ctx).Annotate("redirect", b.Pointer)
		return &transport.GetResp{Found: true, Redirect: b.Pointer}
	}
	return &transport.GetResp{Found: true, Data: b.Data}
}

// handleMultiGet serves a batch of blocks in one RPC, one item per
// requested key in request order. Pointer entries report a redirect
// instead of data, exactly as handleGet does.
func (n *Node) handleMultiGet(ctx context.Context, r *transport.MultiGetReq) transport.Message {
	blocks := n.st.GetBatch(r.Keys)
	// Pooled response: over TCP the transport recycles it (and its Items
	// capacity) once the frame is written, so bulk reads stop allocating
	// response scaffolding per RPC.
	resp := transport.AcquireMultiGetResp()
	redirects := 0
	for i, b := range blocks {
		item := transport.BatchItem{Key: r.Keys[i]}
		if b != nil {
			item.Found = true
			if b.IsPointer() {
				n.metrics.ptrRedirects.Inc()
				redirects++
				item.Redirect = b.Pointer
			} else {
				item.Data = b.Data
			}
		}
		resp.Items = append(resp.Items, item)
	}
	if redirects > 0 {
		tracing.FromContext(ctx).Annotate("redirects", redirects)
	}
	return resp
}

// handleRemove deletes a block after the removal delay (§3), forwarding to
// the replica group when asked.
func (n *Node) handleRemove(ctx context.Context, r *transport.RemoveReq) transport.Message {
	delay := time.Duration(r.DelaySec) * time.Second
	if delay == 0 {
		delay = n.cfg.RemoveDelay
	}
	n.scheduleRemoval(r.Key, delay)
	if r.Replicate {
		n.forwardToReplicas(ctx, &transport.RemoveReq{Key: r.Key, DelaySec: r.DelaySec})
	}
	return &transport.RemoveResp{}
}

// scheduleRemoval arms (or re-arms) the delayed delete for a key. A
// timer that fires after it was cancelled or replaced deletes nothing.
func (n *Node) scheduleRemoval(k keys.Key, delay time.Duration) {
	n.metrics.removals.Inc()
	n.mu.Lock()
	defer n.mu.Unlock()
	if t, ok := n.removeTimers[k]; ok {
		t.Stop()
	}
	var t *time.Timer
	t = time.AfterFunc(delay, func() {
		n.mu.Lock()
		live := n.removeTimers[k] == t
		if live {
			delete(n.removeTimers, k)
		}
		n.mu.Unlock()
		if live {
			n.st.Delete(k)
		}
	})
	n.removeTimers[k] = t
}

// cancelRemoval stops the delayed delete pending for k, if any.
func (n *Node) cancelRemoval(k keys.Key) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if t, ok := n.removeTimers[k]; ok {
		t.Stop()
		delete(n.removeTimers, k)
	}
}

// doomed reports whether k has a delayed removal pending. Repair and
// handoff must not push doomed blocks: the copy would land without a
// removal schedule and resurrect the block after every holder that knew
// about the remove has deleted it (§3).
func (n *Node) doomed(k keys.Key) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	_, ok := n.removeTimers[k]
	return ok
}

// forwardToReplicas sends the request to the r-1 successors, best effort.
// ctx carries the caller's trace position so replica writes appear as
// children of the primary's handler span (it never carries cancellation —
// handlers run under background-derived contexts).
func (n *Node) forwardToReplicas(ctx context.Context, req transport.Message) {
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	for _, p := range n.replicaTargets() {
		_, _ = n.call(ctx, p.Addr, req)
	}
}

// replicaTargets returns the r-1 successors that hold our replicas.
func (n *Node) replicaTargets() []transport.PeerInfo {
	n.mu.Lock()
	defer n.mu.Unlock()
	targets := make([]transport.PeerInfo, 0, n.cfg.Replicas-1)
	for _, p := range n.succs {
		if p.Addr == n.self.Addr {
			continue
		}
		targets = append(targets, p)
		if len(targets) == n.cfg.Replicas-1 {
			break
		}
	}
	return targets
}

// handleSplit returns the byte-median of this node's primary range, so a
// light prober can take the lower half (§6). A node hands out one split
// point at a time: until the previous prober has rejoined as predecessor
// (or visibly given up), concurrent probers are refused — otherwise two
// movers would both adopt the same median as their ID and corrupt the
// ring with duplicate node IDs.
func (n *Node) handleSplit(ctx context.Context) transport.Message {
	n.mu.Lock()
	pred, self := n.pred, n.self
	settling := !n.lastSplit.IsZero() &&
		time.Since(n.lastSplitAt) < 10*n.cfg.StabilizeInterval &&
		!pred.ID.Equal(n.lastSplit)
	n.mu.Unlock()
	if pred.IsZero() || settling {
		return &transport.SplitResp{}
	}
	m, ok := n.st.MedianKey(pred.ID, self.ID)
	if !ok || m.Equal(self.ID) {
		return &transport.SplitResp{}
	}
	n.mu.Lock()
	n.lastSplit = m
	n.lastSplitAt = time.Now()
	n.mu.Unlock()
	n.metrics.splitHandouts.Inc()
	n.events.LogCtx(ctx, obs.LevelInfo, "balance.split_handout", "median", m.Short())
	// Census baseline for the split: the prober rejoining as our
	// predecessor will shrink our primary range, and its own delta event
	// records the after-state; logging ours here gives the event log both
	// ends of the migration round.
	if n.census != nil {
		n.census.SweepNow()
		runs, files := n.census.Totals()
		n.events.LogCtx(ctx, obs.LevelInfo, "census.delta",
			"op", "balance.split_handout",
			"frag_milli", strconv.FormatInt(n.census.FragMilli(), 10),
			"runs", strconv.FormatInt(runs, 10),
			"files", strconv.FormatInt(files, 10))
	}
	return &transport.SplitResp{Ok: true, Median: m}
}

// handleRange lists (or ships) the blocks in an arc.
func (n *Node) handleRange(r *transport.RangeReq) transport.Message {
	items := n.st.Arc(r.Lo, r.Hi)
	resp := &transport.RangeResp{}
	for _, it := range items {
		if it.Block.IsPointer() && !r.WithPointers {
			continue
		}
		out := transport.RangeItem{Key: it.Key, Size: it.Block.Size}
		if it.Block.IsPointer() {
			out.Pointer = it.Block.Pointer
		} else if r.WithData {
			out.Data = it.Block.Data
		}
		resp.Items = append(resp.Items, out)
		if r.Limit > 0 && len(resp.Items) >= r.Limit {
			break
		}
	}
	return resp
}

// repair runs one replica-maintenance round:
//  1. push blocks of our primary range to our r-1 successors (diffing
//     keys first so data moves only when missing), and
//  2. hand blocks outside our replica responsibility to their primary,
//     then drop them.
func (n *Node) repair() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	n.mu.Lock()
	self := n.self
	pred := n.pred
	succs := make([]transport.PeerInfo, len(n.succs))
	copy(succs, n.succs)
	n.mu.Unlock()
	if pred.IsZero() || len(succs) == 0 || succs[0].Addr == self.Addr {
		return
	}

	// (1) Primary-range replication to successors. Track the replica
	// deficit while pushing: slots with no successor to fill them (ring
	// smaller than the replication target, e.g. after churn) plus blocks
	// we could not confirm on a successor this round. The gauge feeds the
	// health engine's replica_deficit check.
	primary := n.st.Arc(pred.ID, self.ID)
	primaryData := 0
	for _, it := range primary {
		if !it.Block.IsPointer() && !n.doomed(it.Key) {
			primaryData++
		}
	}
	desired := n.cfg.Replicas - 1
	replicas := desired
	if replicas > len(succs) {
		replicas = len(succs)
	}
	deficit := int64(desired-replicas) * int64(primaryData)
	for i := 0; i < replicas; i++ {
		deficit += n.pushMissing(ctx, succs[i], pred.ID, self.ID, primary)
	}
	n.metrics.replicaDeficit.Set(deficit)

	// (2) Hand off blocks we should not hold. Our responsibility reaches
	// back r-1 predecessors; walk the pred chain to find the boundary.
	lo, ok := n.replicaRangeStart(ctx)
	if !ok {
		return
	}
	n.handOffOutside(ctx, lo, self.ID)
}

// pushMissing ships the primary blocks the target lacks in (lo, hi]. It
// returns the number of data blocks it could not confirm on the target
// this round (unreachable target counts every block: the replica may be
// gone), feeding repair's deficit gauge.
func (n *Node) pushMissing(ctx context.Context, target transport.PeerInfo, lo, hi keys.Key, items []storeItem) int64 {
	if target.Addr == n.tr.Addr() {
		return 0
	}
	countData := func() int64 {
		var c int64
		for _, it := range items {
			if !it.Block.IsPointer() && !n.doomed(it.Key) {
				c++
			}
		}
		return c
	}
	resp, err := transport.Expect[*transport.RangeResp](
		n.call(ctx, target.Addr, &transport.RangeReq{Lo: lo, Hi: hi}))
	if err != nil {
		return countData()
	}
	have := make(map[keys.Key]bool, len(resp.Items))
	for _, it := range resp.Items {
		have[it.Key] = true
	}
	var missing int64
	for _, it := range items {
		if it.Block.IsPointer() || have[it.Key] || n.doomed(it.Key) {
			continue
		}
		if _, err := transport.Expect[*transport.PutResp](n.call(ctx, target.Addr, &transport.PutReq{
			Key: it.Key, Data: it.Block.Data,
		})); err == nil {
			n.metrics.repairPushes.Inc()
		} else {
			missing++
		}
	}
	return missing
}

// storeItem aliases the store scan item for signatures here.
type storeItem = store.Item

// replicaRangeStart returns the lower bound of the keys this node should
// hold. We replicate for any owner among our r-1 predecessors, and an
// owner's range starts at ITS predecessor — so the bound is the r-th
// predecessor's ID, one hop past the farthest owner. Stopping a hop
// short (the farthest owner's own ID) excludes that owner's entire
// primary range: its second successor then hands those replicas off,
// the owner's repair pushes them back, and the pair ping-pongs the
// blocks forever while the cluster silently keeps r-1 copies.
func (n *Node) replicaRangeStart(ctx context.Context) (keys.Key, bool) {
	cur := n.Predecessor()
	if cur.IsZero() {
		return keys.Key{}, false
	}
	if cur.Addr == n.tr.Addr() {
		return n.Self().ID, true // alone: every key is ours
	}
	for i := 1; i < n.cfg.Replicas; i++ {
		resp, err := transport.Expect[*transport.NeighborsResp](
			n.call(ctx, cur.Addr, &transport.NeighborsReq{}))
		if err != nil || resp.Pred.IsZero() {
			return cur.ID, true
		}
		if resp.Pred.Addr == n.tr.Addr() {
			// The pred chain wrapped back to us within r hops: the ring
			// has at most r nodes, so we replicate every key. (lo == hi
			// is the whole-ring interval.)
			return n.Self().ID, true
		}
		cur = resp.Pred
	}
	return cur.ID, true
}

// handOffOutside pushes blocks outside (lo, hi] to their primary owner and
// drops the local copy once delivered.
func (n *Node) handOffOutside(ctx context.Context, lo, hi keys.Key) {
	all := n.st.Arc(hi, hi) // whole store in key order
	for _, it := range all {
		if it.Key.Between(lo, hi) || it.Block.IsPointer() || n.doomed(it.Key) {
			continue
		}
		owner, _, err := n.Lookup(ctx, it.Key)
		if err != nil || owner.Addr == n.tr.Addr() {
			continue
		}
		if _, err := transport.Expect[*transport.PutResp](n.call(ctx, owner.Addr, &transport.PutReq{
			Key: it.Key, Data: it.Block.Data, Replicate: true,
		})); err == nil {
			n.st.Delete(it.Key)
			n.metrics.handoffs.Inc()
		}
	}
}

// stabilizePointers fetches the data for pointers held longer than the
// pointer stabilization time (§6).
func (n *Node) stabilizePointers() {
	deadline := time.Now().Add(-n.cfg.PointerStabilization)
	stale := n.st.StalePointers(deadline)
	if len(stale) == 0 {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, it := range stale {
		resp, err := transport.Expect[*transport.GetResp](
			n.call(ctx, it.Block.Pointer, &transport.GetReq{Key: it.Key}))
		if err != nil || !resp.Found {
			continue
		}
		if resp.Redirect != "" {
			// Pointer chain: follow one level.
			resp, err = transport.Expect[*transport.GetResp](
				n.call(ctx, resp.Redirect, &transport.GetReq{Key: it.Key}))
			if err != nil || !resp.Found || resp.Redirect != "" {
				continue
			}
		}
		if _, ok := n.store(ctx, it.Key, resp.Data, n.cfg.DefaultTTL, false); ok {
			n.metrics.ptrResolved.Inc()
		}
	}
}
