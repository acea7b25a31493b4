package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"sort"
)

// Layer names, in call order from the user down.
var layers = []string{"fs", "node.client", "transport", "node", "store.disk"}

// kindLayer maps a span kind to the layer its self time belongs to.
var kindLayer = [...]string{
	kindOp:     "fs",
	kindSvc:    "node.client",
	kindCall:   "transport",
	kindHandle: "node",
	kindStore:  "store.disk",
}

// unattributedTolerance is the share of op time that may fall outside
// every layer before the traced run names the boundary that lost it.
const unattributedTolerance = 0.05

// Label sets for per-layer metric families, fixed so every workload
// reports the same names.
var (
	svcCalls     = []string{"put", "get", "getmany", "getsegment", "remove"}
	msgTypes     = []string{"find_succ", "neighbors", "put", "get", "multi_get", "remove"}
	storeMethods = []string{"put", "get", "getbatch", "delete"}
)

// interval is a half-open time range in recorder nanoseconds.
type interval struct{ lo, hi int64 }

// unionLen returns how much of [lo, hi) the intervals cover.
func unionLen(ivs []interval, lo, hi int64) int64 {
	c := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		if iv.lo < lo {
			iv.lo = lo
		}
		if iv.hi > hi {
			iv.hi = hi
		}
		if iv.hi > iv.lo {
			c = append(c, iv)
		}
	}
	sort.Slice(c, func(i, j int) bool { return c[i].lo < c[j].lo })
	var total, end int64
	end = lo
	for _, iv := range c {
		if iv.lo > end {
			end = iv.lo
		}
		if iv.hi > end {
			total += iv.hi - end
			end = iv.hi
		}
	}
	return total
}

// spanTree indexes finished spans by parent.
type spanTree struct {
	spans []span
	at    map[int64]int
	kids  map[int64][]int
}

func newSpanTree(spans []span) *spanTree {
	t := &spanTree{spans: spans, at: make(map[int64]int, len(spans)), kids: make(map[int64][]int)}
	for i, s := range spans {
		t.at[s.ID] = i
		if s.Parent != 0 {
			t.kids[s.Parent] = append(t.kids[s.Parent], i)
		}
	}
	return t
}

// self is a span's duration minus the union of its children's intervals
// inside it: concurrent children (a GetMany fan-out, forwards in flight
// together) are not subtracted twice.
func (t *spanTree) self(i int) int64 {
	s := t.spans[i]
	return s.dur() - t.covered(i)
}

func (t *spanTree) covered(i int) int64 {
	s := t.spans[i]
	kids := t.kids[s.ID]
	if len(kids) == 0 {
		return 0
	}
	ivs := make([]interval, len(kids))
	for j, k := range kids {
		ivs[j] = interval{t.spans[k].Start, t.spans[k].End}
	}
	return unionLen(ivs, s.Start, s.End)
}

// attribute splits span i's duration, weighted by w, across layers: its
// self time goes to its own layer, and the time its children cover is
// shared among them in proportion to their durations, recursively. The
// parts sum to w times the span's duration. A transport call that no
// handler claimed has nothing beneath it to explain its time, so that
// time is unattributed, keyed by the boundary that lost it.
func (t *spanTree) attribute(i int, w float64, acc, lost map[string]float64) {
	s := t.spans[i]
	kids := t.kids[s.ID]
	if s.Kind == kindCall && len(kids) == 0 {
		from := "node"
		if s.Node == clientEndpoint {
			from = "node.client"
		}
		lost[from+"→transport→node ("+s.Name+")"] += w * float64(s.dur())
		return
	}
	acc[kindLayer[s.Kind]] += w * float64(t.self(i))
	var sum int64
	for _, k := range kids {
		sum += t.spans[k].dur()
	}
	if sum == 0 {
		return
	}
	scale := w * float64(t.covered(i)) / float64(sum)
	for _, k := range kids {
		t.attribute(k, scale, acc, lost)
	}
}

// reach marks every span in the tree under span i.
func (t *spanTree) reach(i int, in []bool) {
	in[i] = true
	for _, k := range t.kids[t.spans[i].ID] {
		t.reach(k, in)
	}
}

// counters are the program's own metric series the traced run reads
// before and after its window.
type counters struct {
	wire, fsyncs, walBytes, checkpoints, stalls, hits, misses uint64
	fsyncNs                                                   int64
}

func snapshot(e *env) counters {
	r := e.ring
	wire := r.counter(`d2_tcp_wire_bytes_total{dir="written"}`) +
		r.creg.Counter(`d2_tcp_wire_bytes_total{dir="written"}`).Value()
	return counters{
		wire:        wire,
		fsyncs:      r.counter("d2_store_wal_fsyncs_total"),
		walBytes:    r.counter("d2_store_wal_bytes_total"),
		checkpoints: r.counter("d2_store_checkpoints_total"),
		stalls:      r.counter("d2_store_wal_stalls_total"),
		hits:        r.creg.Counter("d2_client_cache_hits_total").Value(),
		misses:      r.creg.Counter("d2_client_cache_misses_total").Value(),
		fsyncNs:     r.histSum("d2_store_wal_fsync_ns"),
	}
}

func (a counters) delta(b counters) counters {
	return counters{
		wire: b.wire - a.wire, fsyncs: b.fsyncs - a.fsyncs, walBytes: b.walBytes - a.walBytes,
		checkpoints: b.checkpoints - a.checkpoints, stalls: b.stalls - a.stalls,
		hits: b.hits - a.hits, misses: b.misses - a.misses, fsyncNs: b.fsyncNs - a.fsyncNs,
	}
}

// layerReport is the traced run's breakdown.
type layerReport struct {
	ops     int
	opMs    float64            // mean traced op time per workload op
	split   map[string]float64 // ms per op, by layer
	lost    map[string]float64 // ms per op, by boundary
	metrics []metric
}

// analyze folds the traced window's spans and counter deltas into the
// per-layer metric set.
func analyze(spans []span, res *result, c counters) *layerReport {
	t := newSpanTree(spans)
	n := float64(res.ops)
	inOp := make([]bool, len(spans))
	acc, lost := map[string]float64{}, map[string]float64{}
	var opNs, userWritten, userBytes float64
	for i, s := range spans {
		if s.Kind != kindOp {
			continue
		}
		t.reach(i, inOp)
		t.attribute(i, 1, acc, lost)
		opNs += float64(s.dur())
		userBytes += float64(s.Bytes)
		if s.Name == "write" || s.Name == "update" {
			userWritten += float64(s.Bytes)
		}
	}
	rep := &layerReport{ops: res.ops, opMs: opNs / 1e6 / n, split: map[string]float64{}, lost: map[string]float64{}}
	for _, l := range layers {
		rep.split[l] = acc[l] / 1e6 / n
	}
	var lostNs float64
	for k, v := range lost {
		rep.lost[k] = v / 1e6 / n
		lostNs += v
	}

	type agg struct {
		count, dur, self, kids, lookups, fanout, overhead, matched, errs float64
	}
	svc, call, handle, st := map[string]*agg{}, map[string]*agg{}, map[string]*agg{}, map[string]*agg{}
	get := func(m map[string]*agg, k string) *agg {
		if m[k] == nil {
			m[k] = &agg{}
		}
		return m[k]
	}
	var fsSelf, nodeSelf, putBytes, storePuts float64
	var primaryPuts, forwards, forwardNs float64
	for i, s := range spans {
		if s.Kind == kindStore {
			a := get(st, s.Name)
			a.count++
			a.dur += float64(s.dur())
			if s.Name == "put" {
				storePuts++
			}
			continue
		}
		if !inOp[i] {
			continue
		}
		kids := t.kids[s.ID]
		switch s.Kind {
		case kindOp:
			fsSelf += float64(t.self(i))
		case kindSvc:
			a := get(svc, s.Name)
			a.count++
			a.dur += float64(s.dur())
			a.self += float64(t.self(i))
			peers := map[string]bool{}
			for _, k := range kids {
				a.kids++
				if t.spans[k].Name == "find_succ" {
					a.lookups++
				} else {
					peers[t.spans[k].Peer] = true
				}
			}
			a.fanout += float64(len(peers))
			if s.Name == "put" {
				putBytes += float64(s.Bytes)
			}
		case kindCall:
			a := get(call, s.Name)
			a.count++
			if s.Err {
				a.errs++
			}
			for _, k := range kids {
				if t.spans[k].Kind == kindHandle {
					a.matched++
					a.overhead += float64(s.dur() - t.spans[k].dur())
				}
			}
		case kindHandle:
			a := get(handle, s.Name)
			a.count++
			a.dur += float64(s.dur())
			nodeSelf += float64(t.self(i))
			if s.Name != "put" {
				break
			}
			if p, ok := t.parent(s); ok && p.Node == clientEndpoint {
				primaryPuts++
				var ivs []interval
				for _, k := range kids {
					if t.spans[k].Kind == kindCall {
						forwards++
						ivs = append(ivs, interval{t.spans[k].Start, t.spans[k].End})
					}
				}
				forwardNs += float64(unionLen(ivs, s.Start, s.End))
			}
		}
	}

	add := func(name string, v float64, unit string) {
		rep.metrics = append(rep.metrics, metric{name, v, unit})
	}
	add("fs.self_ms_per_op", fsSelf/1e6/n, "ms")
	for _, c := range svcCalls {
		add("fs.svc_calls_per_op."+c, get(svc, c).count/n, "count")
	}
	add("fs.put_bytes_per_user_byte", ratio(putBytes, userWritten), "B/B")
	add("fs.stream_stalls_per_op", float64(res.stalls)/n, "count")
	add("fs.stream_wasted_blocks_per_op", float64(res.wasted)/n, "count")
	for _, c := range svcCalls {
		a := get(svc, c)
		add("client.ms_per_call."+c, ratio(a.dur, a.count)/1e6, "ms")
		add("client.self_ms_per_call."+c, ratio(a.self, a.count)/1e6, "ms")
		add("client.rpcs_per_call."+c, ratio(a.kids, a.count), "count")
		add("client.lookup_rpcs_per_call."+c, ratio(a.lookups, a.count), "count")
		add("client.fanout_per_call."+c, ratio(a.fanout, a.count), "count")
	}
	add("client.cache_hit_ratio", ratio(float64(c.hits), float64(c.hits+c.misses)), "ratio")
	var callErrs float64
	for _, a := range call {
		callErrs += a.errs
	}
	for _, m := range msgTypes {
		a := get(call, m)
		add("transport.calls_per_op."+m, a.count/n, "count")
		add("transport.overhead_us_per_call."+m, ratio(a.overhead, a.matched)/1e3, "us")
	}
	add("transport.wire_bytes_per_user_byte", ratio(float64(c.wire), userBytes), "B/B")
	add("transport.errors_per_op", callErrs/n, "count")
	for _, m := range msgTypes {
		a := get(handle, m)
		add("node.handler_ms_per_call."+m, ratio(a.dur, a.count)/1e6, "ms")
	}
	add("node.self_ms_per_op", nodeSelf/1e6/n, "ms")
	add("node.forwards_per_put", ratio(forwards, primaryPuts), "count")
	add("node.forward_ms_per_put", ratio(forwardNs, primaryPuts)/1e6, "ms")
	for _, m := range storeMethods {
		a := get(st, m)
		add("store.calls_per_op."+m, a.count/n, "count")
		add("store.ms_per_call."+m, ratio(a.dur, a.count)/1e6, "ms")
	}
	add("store.fsyncs_per_put", ratio(float64(c.fsyncs), storePuts), "count")
	add("store.fsync_wait_ms_per_op", float64(c.fsyncNs)/1e6/n, "ms")
	add("store.wal_bytes_per_user_byte", ratio(float64(c.walBytes), userWritten), "B/B")
	add("store.checkpoints", float64(c.checkpoints), "count")
	add("store.wal_stalls", float64(c.stalls), "count")
	for _, l := range layers {
		add("split."+l+"_ms_per_op", rep.split[l], "ms")
	}
	add("split.unattributed_ms_per_op", lostNs/1e6/n, "ms")
	add("trace.unattributed_frac", ratio(lostNs, opNs), "ratio")
	return rep
}

func (t *spanTree) parent(s span) (span, bool) {
	i, ok := t.at[s.Parent]
	if !ok {
		return span{}, false
	}
	return t.spans[i], true
}

// perLayer completes the --trace 1 metric set with the generator's
// schedule health and the tracing overhead against the untraced phase.
func perLayer(rep *layerReport, traced, plain *result) []metric {
	out := append([]metric(nil), rep.metrics...)
	overhead := ratio(meanMs(traced.main), meanMs(plain.main)) - 1
	return append(out,
		metric{"gen.late_p95_ms", percentile(traced.lateMs, 95), "ms"},
		metric{"gen.queue_ms_p50", percentile(traced.queueMs, 50), "ms"},
		metric{"trace.overhead_frac", overhead, "ratio"},
	)
}

func meanMs(xs []sample) float64 {
	var s float64
	for _, x := range xs {
		s += x.ms
	}
	return ratio(s, float64(len(xs)))
}

// print writes the op-time split table and names any boundary whose lost
// time exceeds the tolerance.
func (rep *layerReport) print(w io.Writer) {
	fmt.Fprintf(w, "traced op time %.3f ms/op over %d ops\n", rep.opMs, rep.ops)
	for _, l := range layers {
		fmt.Fprintf(w, "  %-12s %10.3f ms/op  %5.1f%%\n", l, rep.split[l], 100*ratio(rep.split[l], rep.opMs))
	}
	var lost float64
	for _, k := range sortedKeys(rep.lost) {
		lost += rep.lost[k]
	}
	fmt.Fprintf(w, "  %-12s %10.3f ms/op  %5.1f%%\n", "unattributed", lost, 100*ratio(lost, rep.opMs))
	if ratio(lost, rep.opMs) > unattributedTolerance {
		for _, k := range sortedKeys(rep.lost) {
			fmt.Fprintf(w, "  missing time at %s: %.3f ms/op\n", k, rep.lost[k])
		}
	}
}

// dumpSpans writes the traced window's spans as gzip'd tab-separated rows.
func dumpSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	fmt.Fprintln(bw, "id\tparent\tkind\tname\tnode\tpeer\tbytes\tstart_ns\tend_ns\terr")
	for _, s := range spans {
		fmt.Fprintf(bw, "%d\t%d\t%d\t%s\t%d\t%s\t%d\t%d\t%d\t%t\n",
			s.ID, s.Parent, s.Kind, s.Name, s.Node, s.Peer, s.Bytes, s.Start, s.End, s.Err)
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
