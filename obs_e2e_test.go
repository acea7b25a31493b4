package d2_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	d2 "github.com/defragdht/d2"
	"github.com/defragdht/d2/internal/keys"
	"github.com/defragdht/d2/internal/obs"
	"github.com/defragdht/d2/internal/obs/history"
)

// --- strict Prometheus exposition parsing -------------------------------

var (
	typeLineRe   = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram)$`)
	sampleLineRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{([^}]*)\})? (\S+)$`)
	labelPairRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*"$`)
)

// promHist accumulates one histogram labelset's samples during parsing.
type promHist struct {
	les      []float64 // le bound of each bucket, in order of appearance
	cumCount []uint64
	sum      float64
	hasSum   bool
	count    uint64
	hasCount bool
}

// promDoc is a fully parsed exposition document.
type promDoc struct {
	types    map[string]string  // base name -> counter|gauge|histogram
	counters map[string]float64 // full series key -> value
	gauges   map[string]float64 // full series key -> value
	hists    map[string]*promHist
}

// seriesKey rebuilds the registry-style key `name{labels}` from a parsed
// sample line.
func seriesKey(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + "{" + labels + "}"
}

// parseProm parses a Prometheus text exposition strictly: every line must
// be a well-formed TYPE header or sample, each base name gets exactly one
// TYPE header which precedes all its samples, label pairs are well-formed,
// and values parse as floats. Histogram invariants (cumulative buckets,
// ascending le, terminal +Inf, _count == +Inf bucket) are checked after
// the scan.
func parseProm(t *testing.T, text string) *promDoc {
	t.Helper()
	doc := &promDoc{
		types:    map[string]string{},
		counters: map[string]float64{},
		gauges:   map[string]float64{},
		hists:    map[string]*promHist{},
	}
	// closed marks base names whose sample block has ended (a later TYPE
	// header started a new family): strict ordering means no samples may
	// appear for them again.
	closed := map[string]bool{}
	lastBase := ""
	for i, line := range strings.Split(text, "\n") {
		lineNo := i + 1
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			m := typeLineRe.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("line %d: malformed comment %q", lineNo, line)
			}
			name, typ := m[1], m[2]
			if _, dup := doc.types[name]; dup {
				t.Fatalf("line %d: duplicate # TYPE for %s", lineNo, name)
			}
			doc.types[name] = typ
			if lastBase != "" {
				closed[lastBase] = true
			}
			lastBase = name
			continue
		}
		m := sampleLineRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line %d: malformed sample %q", lineNo, line)
		}
		name, labels, valStr := m[1], m[2], m[3]
		for _, pair := range splitLabelPairs(labels) {
			if !labelPairRe.MatchString(pair) {
				t.Fatalf("line %d: malformed label pair %q in %q", lineNo, pair, line)
			}
		}
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("line %d: bad value %q: %v", lineNo, valStr, err)
		}

		// Resolve the sample to its declared family.
		base, suffix := name, ""
		if doc.types[base] == "" {
			for _, sfx := range []string{"_bucket", "_sum", "_count"} {
				trimmed := strings.TrimSuffix(name, sfx)
				if trimmed != name && doc.types[trimmed] == "histogram" {
					base, suffix = trimmed, sfx
					break
				}
			}
		}
		typ, ok := doc.types[base]
		if !ok {
			t.Fatalf("line %d: sample %q has no preceding # TYPE", lineNo, name)
		}
		if base != lastBase {
			t.Fatalf("line %d: sample for %s after its family block closed", lineNo, base)
		}
		if closed[base] {
			t.Fatalf("line %d: family %s re-opened", lineNo, base)
		}

		switch typ {
		case "counter":
			if val < 0 {
				t.Fatalf("line %d: negative counter %q", lineNo, line)
			}
			doc.counters[seriesKey(name, labels)] = val
		case "gauge":
			doc.gauges[seriesKey(name, labels)] = val
		case "histogram":
			if suffix == "" {
				t.Fatalf("line %d: bare sample %q for histogram %s", lineNo, name, base)
			}
			inner, le, hasLE := extractLE(labels)
			key := seriesKey(base, inner)
			h := doc.hists[key]
			if h == nil {
				h = &promHist{}
				doc.hists[key] = h
			}
			switch suffix {
			case "_bucket":
				if !hasLE {
					t.Fatalf("line %d: bucket without le label: %q", lineNo, line)
				}
				leVal := plusInf
				if le != "+Inf" {
					leVal, err = strconv.ParseFloat(le, 64)
					if err != nil {
						t.Fatalf("line %d: bad le %q", lineNo, le)
					}
				}
				h.les = append(h.les, leVal)
				h.cumCount = append(h.cumCount, uint64(val))
			case "_sum":
				if h.hasSum {
					t.Fatalf("line %d: duplicate _sum for %s", lineNo, key)
				}
				h.sum, h.hasSum = val, true
			case "_count":
				if h.hasCount {
					t.Fatalf("line %d: duplicate _count for %s", lineNo, key)
				}
				h.count, h.hasCount = uint64(val), true
			}
		}
	}

	for key, h := range doc.hists {
		if len(h.les) == 0 || !h.hasSum || !h.hasCount {
			t.Fatalf("histogram %s incomplete: %d buckets, sum=%v count=%v",
				key, len(h.les), h.hasSum, h.hasCount)
		}
		for i := 1; i < len(h.les); i++ {
			if h.les[i] <= h.les[i-1] {
				t.Fatalf("histogram %s: le bounds not ascending at bucket %d", key, i)
			}
			if h.cumCount[i] < h.cumCount[i-1] {
				t.Fatalf("histogram %s: bucket counts not cumulative at %d", key, i)
			}
		}
		if h.les[len(h.les)-1] != plusInf {
			t.Fatalf("histogram %s: last bucket is not le=\"+Inf\"", key)
		}
		if h.cumCount[len(h.cumCount)-1] != h.count {
			t.Fatalf("histogram %s: +Inf bucket %d != _count %d",
				key, h.cumCount[len(h.cumCount)-1], h.count)
		}
	}
	return doc
}

// plusInf avoids importing math for one constant.
var plusInf = func() float64 { v, _ := strconv.ParseFloat("+Inf", 64); return v }()

// splitLabelPairs splits an inner label list on commas. Registry label
// values never contain commas or escapes (enforced by the strict pair
// regex afterwards).
func splitLabelPairs(labels string) []string {
	if labels == "" {
		return nil
	}
	return strings.Split(labels, ",")
}

// extractLE removes the le label from a bucket's label list, returning
// the remaining inner list and the le value.
func extractLE(labels string) (inner, le string, ok bool) {
	var kept []string
	for _, pair := range splitLabelPairs(labels) {
		if v, found := strings.CutPrefix(pair, `le="`); found {
			le, ok = strings.TrimSuffix(v, `"`), true
			continue
		}
		kept = append(kept, pair)
	}
	return strings.Join(kept, ","), le, ok
}

// TestMetricsExpositionStrict boots a 2-node ring, drives client traffic
// through it, and strictly parses the full /metrics exposition of an
// instrumented node: every line well-formed, one TYPE header per family
// preceding its samples, histogram buckets cumulative and +Inf-terminated.
// It then round-trips the node's frozen /statsz snapshot through
// WritePrometheus and checks the parsed values match the snapshot exactly.
func TestMetricsExpositionStrict(t *testing.T) {
	ctx := context.Background()
	n1, err := d2.StartNode(ctx, "127.0.0.1:0", "", fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer n1.Close()
	n2, err := d2.StartNode(ctx, "127.0.0.1:0", n1.Addr(), fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer n2.Close()
	time.Sleep(200 * time.Millisecond)

	client, err := d2.ConnectTCP([]string{n1.Addr()}, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	_, priv, _ := d2.GenerateKey()
	vol, err := client.CreateVolume(ctx, "expovol", priv, d2.VolumeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := vol.WriteFile(ctx, "/f.bin", bytes.Repeat([]byte("x"), 64<<10)); err != nil {
		t.Fatal(err)
	}
	if err := vol.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	// A streamed read populates the d2_stream_* family on the client side
	// and batched serve metrics on the nodes.
	r, err := vol.ReadStream(ctx, "/f.bin")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, r); err != nil {
		t.Fatal(err)
	}
	r.Close()

	srv := httptest.NewServer(n1.AdminHandler())
	defer srv.Close()
	get := func(path string) string {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: %d", path, resp.StatusCode)
		}
		return string(body)
	}

	doc := parseProm(t, get("/metrics"))
	// The live node must expose all three families with real content: node
	// storage gauges, labeled RPC counters, and latency histograms.
	for series, typ := range map[string]string{
		"d2_node_store_bytes":     "gauge",
		"d2_rpc_server_total":     "counter",
		"d2_tcp_wire_bytes_total": "counter",
	} {
		if doc.types[series] != typ {
			t.Fatalf("/metrics: %s is %q, want %s", series, doc.types[series], typ)
		}
	}
	if len(doc.hists) == 0 {
		t.Fatal("/metrics exposes no histograms from a node that served RPCs")
	}

	// Round-trip: freeze a snapshot, render it, parse it back, compare.
	var snap obs.Snapshot
	if err := json.Unmarshal([]byte(get("/statsz")), &snap); err != nil {
		t.Fatalf("/statsz: %v", err)
	}
	var buf bytes.Buffer
	if err := obs.WritePrometheus(&buf, snap); err != nil {
		t.Fatal(err)
	}
	rt := parseProm(t, buf.String())
	if len(rt.counters) != len(snap.Counters) {
		t.Fatalf("round-trip counters: %d parsed, %d in snapshot", len(rt.counters), len(snap.Counters))
	}
	for key, want := range snap.Counters {
		if got := rt.counters[key]; got != float64(want) {
			t.Fatalf("round-trip counter %s = %v, want %d", key, got, want)
		}
	}
	for key, want := range snap.Gauges {
		if got := rt.gauges[key]; got != float64(want) {
			t.Fatalf("round-trip gauge %s = %v, want %d", key, got, want)
		}
	}
	if len(rt.hists) != len(snap.Histograms) {
		t.Fatalf("round-trip histograms: %d parsed, %d in snapshot", len(rt.hists), len(snap.Histograms))
	}
	for key, want := range snap.Histograms {
		h := rt.hists[key]
		if h == nil {
			t.Fatalf("round-trip lost histogram %s", key)
		}
		if h.count != want.Count() || h.sum != float64(want.Sum) {
			t.Fatalf("round-trip histogram %s: count=%d sum=%v, want count=%d sum=%d",
				key, h.count, h.sum, want.Count(), want.Sum)
		}
		if len(h.les) != len(want.Bounds)+1 {
			t.Fatalf("round-trip histogram %s: %d buckets, want %d", key, len(h.les), len(want.Bounds)+1)
		}
	}
}

// TestDoctorFlagsReplicaDeficit injects a replica deficit into a 3-node
// ring (replicas=3, so every survivor of a node kill is short one
// successor) and checks the doctor path end to end: the survivors' repair
// rounds publish the deficit, their health engines degrade, and
// the doctor report names the replica_deficit check against a real node.
func TestDoctorFlagsReplicaDeficit(t *testing.T) {
	ctx := context.Background()
	opts := fastOptions()
	opts.HistoryInterval = 20 * time.Millisecond

	var nodes []*d2.Node
	for i := 0; i < 3; i++ {
		seed := ""
		if i > 0 {
			seed = nodes[0].Addr()
		}
		n, err := d2.StartNode(ctx, "127.0.0.1:0", seed, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		nodes = append(nodes, n)
	}
	time.Sleep(300 * time.Millisecond)

	client, err := d2.ConnectTCP([]string{nodes[0].Addr(), nodes[1].Addr()}, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	for i := 0; i < 16; i++ {
		k := keys.HashString(fmt.Sprintf("deficit-block-%02d", i))
		if err := client.Put(ctx, k, bytes.Repeat([]byte("d"), 2048)); err != nil {
			t.Fatal(err)
		}
	}

	// Healthy baseline first: with all three nodes up, no replica deficit.
	reports, err := client.NodeReports(ctx, d2.SectionHealth)
	if err != nil {
		t.Fatal(err)
	}
	report := d2.DoctorReport(reports)
	if report.Nodes != 3 {
		t.Fatalf("doctor sees %d nodes, want 3", report.Nodes)
	}
	for _, p := range report.Problems {
		if p.Check == "replica_deficit" {
			t.Fatalf("healthy ring already has a deficit problem: %+v", p)
		}
	}

	// Kill one node; r=3 now cannot be satisfied by the 2 survivors, so
	// every repair round leaves a deficit and the health engines degrade.
	if err := nodes[2].Close(); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(15 * time.Second)
	var lastReport d2.ClusterReport
	for {
		if time.Now().After(deadline) {
			t.Fatalf("doctor never flagged replica_deficit; last report: %+v", lastReport)
		}
		time.Sleep(100 * time.Millisecond)
		reports, err := client.NodeReports(ctx, d2.SectionHealth)
		if err != nil {
			continue // transient while the ring heals around the dead node
		}
		report := d2.DoctorReport(reports)
		lastReport = report
		if report.Nodes != 2 {
			continue // dead node still in a successor list
		}
		found := false
		for _, p := range report.Problems {
			if p.Check != "replica_deficit" {
				continue
			}
			found = true
			if p.Node != nodes[0].Addr() && p.Node != nodes[1].Addr() {
				t.Fatalf("deficit problem names %q, not a survivor", p.Node)
			}
			if p.State == "ok" || p.Evidence == "" {
				t.Fatalf("deficit problem lacks verdict or evidence: %+v", p)
			}
		}
		if !found {
			continue
		}
		if report.State == "ok" {
			t.Fatalf("report has deficit problems but state ok: %+v", report)
		}
		return
	}
}

// TestFlightRecorderSlowRequest induces a slow request against a node
// running with a 1 ns slow threshold and a flight directory, then checks
// the dumped bundle is self-contained: the triggering trace's spans, the
// recent event log, the health verdict, and derived metric rates.
func TestFlightRecorderSlowRequest(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	opts := fastOptions()
	opts.HistoryInterval = 20 * time.Millisecond
	opts.TraceSlowThreshold = time.Nanosecond // every serve is "slow"
	opts.FlightDir = dir
	opts.FlightMinGap = time.Millisecond

	nd, err := d2.StartNode(ctx, "127.0.0.1:0", "", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()

	client, err := d2.ConnectTCP([]string{nd.Addr()}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// Warm up first: an untraced put registers every RPC metric series,
	// and the sleep lets the sampler take post-registration samples — a
	// bundle dumped before the ring has history has no rate window.
	k := keys.HashString("flight-block")
	if err := client.Put(ctx, k, []byte("warmup")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(150 * time.Millisecond)

	// A forced trace rides the RPC to the node, so the node-side
	// slow.request event carries the trace ID into the bundle. Earlier
	// untraced RPCs (the client bootstrap) claim the first dumps, so keep
	// issuing traced puts until a complete traced bundle lands.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("no flight bundle with a trace appeared")
		}
		sctx, root := client.StartTrace(ctx, "test.slowput")
		err := client.Put(sctx, k, []byte("slow payload"))
		root.EndErr(err)
		if err != nil {
			t.Fatal(err)
		}
		if bundle := findTracedBundle(t, dir); bundle != nil {
			checkFlightBundle(t, bundle, nd.Addr())
			return
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// findTracedBundle scans dir for a flight bundle that recorded a traced
// slow request with a live rate window (bundles for untraced requests and
// pre-history dumps are ignored).
func findTracedBundle(t *testing.T, dir string) *history.Bundle {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		if !strings.HasPrefix(ent.Name(), "flight-") {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			continue
		}
		var b history.Bundle
		if err := json.Unmarshal(raw, &b); err != nil {
			t.Fatalf("bundle %s is not valid JSON: %v", ent.Name(), err)
		}
		if b.Trigger == "slow_request" && b.Trace != "" && len(b.Spans) > 0 &&
			len(b.Rates.Counters) > 0 {
			return &b
		}
	}
	return nil
}

// checkFlightBundle asserts a dumped bundle is the self-contained
// diagnostic document the flight recorder promises.
func checkFlightBundle(t *testing.T, b *history.Bundle, nodeAddr string) {
	t.Helper()
	if b.Node != nodeAddr {
		t.Fatalf("bundle node = %q, want %q", b.Node, nodeAddr)
	}
	// The triggering span: a node-side serve span of the traced request.
	foundServe := false
	for _, sp := range b.Spans {
		if strings.HasPrefix(sp.Name, "serve.") {
			foundServe = true
		}
	}
	if !foundServe {
		t.Fatalf("bundle spans lack the serve span: %+v", b.Spans)
	}
	// Recent events, including the slow.request that pulled the trigger.
	foundSlow := false
	for _, ev := range b.Events {
		if ev.Name == "slow.request" {
			foundSlow = true
		}
	}
	if !foundSlow {
		t.Fatal("bundle events lack the slow.request entry")
	}
	// Metric deltas: the health engine took a fresh sample at dump time,
	// so the served RPC shows up in the rates document.
	if b.Health.State == "" || len(b.Health.Checks) == 0 {
		t.Fatalf("bundle health incomplete: %+v", b.Health)
	}
	if len(b.Rates.Counters) == 0 {
		t.Fatal("bundle rates carry no counter deltas")
	}
}
