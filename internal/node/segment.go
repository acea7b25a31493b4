package node

import (
	"context"
	"runtime/pprof"
	"time"

	"github.com/defragdht/d2/internal/keys"
)

// Streaming-segment retry policy. A stream segment races churn for
// longer than a one-shot read: a balance move or node kill can make a
// key transiently unreadable at its brand-new owner (§8.1), and a
// stream abandoned on the first not-found would drop mid-playback. So
// missing keys are retried with jittered backoff for a few rounds —
// each round re-resolving ownership from scratch — before the segment
// reports the loss.
const (
	segmentRetryRounds  = 3
	segmentRetryBackoff = 150 * time.Millisecond
)

// GetSegment is the streaming read path's segment fetch: GetMany's
// owner-grouped batching plus per-key not-found retries tuned for
// consumers racing churn. Keys still missing after the retry budget are
// omitted from the result, like GetMany; the caller decides whether a
// hole is fatal.
func (c *Client) GetSegment(ctx context.Context, ks []keys.Key) (map[keys.Key][]byte, error) {
	sctx, sp := c.tracer.StartOp(ctx, "client.segment")
	if !opTraced(sctx, sp) {
		return c.getSegment(ctx, ks)
	}
	sp.Annotate("keys", len(ks))
	var out map[keys.Key][]byte
	var err error
	pprof.Do(sctx, pprof.Labels("d2_op", "client.segment"), func(cx context.Context) {
		out, err = c.getSegment(cx, ks)
	})
	sp.EndErr(err)
	return out, err
}

// getSegment is GetSegment without the tracing shell.
func (c *Client) getSegment(ctx context.Context, ks []keys.Key) (map[keys.Key][]byte, error) {
	c.segments.Inc()
	out, err := c.getMany(ctx, ks)
	if err == nil && len(out) == len(ks) {
		return out, nil
	}
	// A transport error (a batch aimed at a just-killed owner answers
	// "unreachable") burns retry budget like a missing key: the next
	// round re-resolves ownership after repair has had time to run,
	// instead of aborting the stream on the first dead peer.
	if out == nil {
		out = make(map[keys.Key][]byte)
	}
	missing := missingKeys(ks, out)
	backoff := segmentRetryBackoff
	for round := 0; round < segmentRetryRounds && len(missing) > 0; round++ {
		c.mu.Lock()
		jitter := time.Duration(c.rng.Int64N(int64(backoff)))
		c.mu.Unlock()
		select {
		case <-ctx.Done():
			return out, ctx.Err()
		case <-time.After(backoff/2 + jitter):
		}
		backoff *= 2
		// Ownership may have resettled: drop cached ranges for the
		// stragglers and re-resolve from scratch.
		for _, k := range missing {
			c.invalidate(k)
			c.segRetries.Inc()
		}
		got, gerr := c.getMany(ctx, missing)
		err = gerr
		for k, data := range got {
			out[k] = data
		}
		missing = missingKeys(missing, out)
	}
	if len(missing) > 0 && err != nil {
		return out, err
	}
	return out, nil
}

// missingKeys returns the keys of ks absent from got, preserving order.
func missingKeys(ks []keys.Key, got map[keys.Key][]byte) []keys.Key {
	var out []keys.Key
	for _, k := range ks {
		if _, ok := got[k]; !ok {
			out = append(out, k)
		}
	}
	return out
}
