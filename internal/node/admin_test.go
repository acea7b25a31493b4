package node

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/defragdht/d2/internal/keys"
	"github.com/defragdht/d2/internal/obs"
	"github.com/defragdht/d2/internal/obs/history"
	"github.com/defragdht/d2/internal/transport"
)

// TestWalkRing checks that a ring walk (a node-report walk with no
// sections) enumerates every member exactly once, in ring order.
func TestWalkRing(t *testing.T) {
	net := transport.NewMemNetwork(0)
	nodes := startRing(t, net, 6, nil)
	defer closeAll(t, nodes)
	c := newClient(t, net, nodes)
	defer c.Close()

	members, err := c.NodeReports(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != len(nodes) {
		t.Fatalf("walk found %d members, want %d", len(members), len(nodes))
	}
	seen := make(map[transport.Addr]bool)
	for _, m := range members {
		if seen[m.Self.Addr] {
			t.Fatalf("member %s visited twice", m.Self.Addr)
		}
		seen[m.Self.Addr] = true
	}
	// Walk order must follow the successor chain.
	for i, m := range members {
		next := members[(i+1)%len(members)]
		if len(m.Succs) == 0 || m.Succs[0].Addr != next.Self.Addr {
			t.Fatalf("walk order broken at %s", m.Self.Addr)
		}
	}
}

// TestWalkRingSkipsDeadMember checks that the walk routes around one
// unreachable node, and then two adjacent ones, via the previous
// member's successor list.
func TestWalkRingSkipsDeadMember(t *testing.T) {
	net := transport.NewMemNetwork(0)
	nodes := startRing(t, net, 6, nil)
	defer closeAll(t, nodes)
	c := newClient(t, net, nodes)
	defer c.Close()

	ctx := context.Background()
	members, err := c.NodeReports(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Kill a member that is not a seed, so the walk must step over it.
	var dead transport.Addr
	for _, m := range members {
		if !slices.Contains(c.seeds, m.Self.Addr) {
			dead = m.Self.Addr
			break
		}
	}
	for _, n := range nodes {
		if n.Self().Addr == dead {
			if err := n.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	members, err = c.NodeReports(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != len(nodes)-1 {
		t.Fatalf("walk found %d members, want %d", len(members), len(nodes)-1)
	}
	for _, m := range members {
		if m.Self.Addr == dead {
			t.Fatalf("dead member %s appeared in walk", dead)
		}
	}

	// Kill two ring-adjacent non-seed members at once: the walk must step
	// over both through the previous member's successor list, trying each
	// dead entry once instead of bouncing between them.
	var pair []transport.Addr
	for i, m := range members {
		next := members[(i+1)%len(members)]
		if !slices.Contains(c.seeds, m.Self.Addr) && !slices.Contains(c.seeds, next.Self.Addr) {
			pair = []transport.Addr{m.Self.Addr, next.Self.Addr}
			break
		}
	}
	for _, n := range nodes {
		if slices.Contains(pair, n.Self().Addr) {
			if err := n.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	members, err = c.NodeReports(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != len(nodes)-3 {
		t.Fatalf("walk found %d members, want %d", len(members), len(nodes)-3)
	}
	for _, m := range members {
		if slices.Contains(pair, m.Self.Addr) {
			t.Fatalf("dead member %s appeared in walk", m.Self.Addr)
		}
	}
}

// TestNodeReportMetrics exercises the full metrics scrape path: traffic
// through the client, a node report with the metrics section from every
// ring member, and a merged snapshot holding both server-side RPC
// counters and the client's cache counters.
func TestNodeReportMetrics(t *testing.T) {
	net := transport.NewMemNetwork(0)
	netReg := obs.New()
	net.UseMetrics(transport.NewRPCMetrics(netReg))
	nodes := startRing(t, net, 5, nil)
	defer closeAll(t, nodes)
	c := newClient(t, net, nodes)
	defer c.Close()

	ctx := context.Background()
	var total int64
	for i := 0; i < 20; i++ {
		k := keys.HashString(string(rune('a' + i)))
		data := make([]byte, 64+i)
		if err := c.Put(ctx, k, data); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Get(ctx, k); err != nil {
			t.Fatal(err)
		}
		total += int64(len(data))
	}

	stats, err := c.NodeReports(ctx, transport.SectionMetrics)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != len(nodes) {
		t.Fatalf("scraped %d nodes, want %d", len(stats), len(nodes))
	}

	var stored, blocks int64
	snaps := make([]obs.Snapshot, 0, len(stats)+1)
	for _, ns := range stats {
		stored += ns.StoredBytes
		blocks += ns.Blocks
		if ns.Snapshot.Counters == nil {
			t.Fatalf("node %s returned empty snapshot", ns.Self.Addr)
		}
		snaps = append(snaps, ns.Snapshot)
	}
	if blocks == 0 || stored < total {
		t.Fatalf("cluster totals blocks=%d stored=%d, want >0 and >=%d", blocks, stored, total)
	}

	merged := obs.MergeAll(snaps...)
	if got := merged.Gauges["d2_node_store_bytes"]; got < total {
		t.Fatalf("merged store gauge %d, want >= %d", got, total)
	}

	// The mem network records per-RPC transport counters in one shared
	// registry (d2node instead shares the node's registry with its
	// transport); merging it in must surface the served-RPC counters.
	merged = obs.MergeAll(append(snaps, netReg.Snapshot())...)
	var served uint64
	for name, v := range merged.Counters {
		if len(name) > len("d2_rpc_server_total") && name[:len("d2_rpc_server_total")] == "d2_rpc_server_total" {
			served += v
		}
	}
	if served == 0 {
		t.Fatal("merged snapshot has no served RPCs after traffic")
	}

	// The client-side registry carries the lookup-cache counters; merging
	// it in must surface them.
	merged = obs.MergeAll(append(snaps, c.Metrics().Snapshot())...)
	hits := merged.Counters["d2_client_cache_hits_total"]
	misses := merged.Counters["d2_client_cache_misses_total"]
	if hits+misses == 0 {
		t.Fatal("merged snapshot missing client cache counters")
	}
	wantHits, wantMisses := c.Stats()
	if hits != wantHits || misses != wantMisses {
		t.Fatalf("merged cache counters %d/%d, want %d/%d", hits, misses, wantHits, wantMisses)
	}
}

// TestNodeReportRPCCount pins the cost of a full scrape and checks that
// every section matches the node it came from. One NodeReports call with
// every section must cost at most N+1 client RPCs on an N-node ring. The
// three per-section scrape RPCs it replaced each paid a walk of N+1
// NeighborsReqs and then one request per node: 2N+1 for each section,
// and 4N+2 for `d2ctl stats`, which walked once for metrics and once for
// the census.
func TestNodeReportRPCCount(t *testing.T) {
	net := transport.NewMemNetwork(0)
	engines := make([]*history.Engine, 5)
	nodes := startRing(t, net, len(engines), func(i int, cfg *Config) {
		cfg.Metrics = obs.New()
		engines[i] = history.New(history.Config{Registry: cfg.Metrics, Node: fmt.Sprintf("n%d", i)})
		cfg.Health = engines[i]
		cfg.CensusInterval = time.Hour // swept by hand below
	})
	defer closeAll(t, nodes)
	c := newClient(t, net, nodes)
	defer c.Close()

	ctx := context.Background()
	var ks []keys.Key
	for i := 0; i < 20; i++ {
		k := keys.HashString(fmt.Sprintf("report-%d", i))
		if err := c.Put(ctx, k, make([]byte, 64+i)); err != nil {
			t.Fatal(err)
		}
		ks = append(ks, k)
	}
	// Let placement settle so the load fields hold still while compared.
	deadline := time.Now().Add(10 * time.Second)
	for !succListsConverged(nodes) || slices.ContainsFunc(ks, func(k keys.Key) bool { return !onReplicaHolders(nodes, k, 3) }) {
		if time.Now().After(deadline) {
			t.Fatal("placement never settled")
		}
		time.Sleep(25 * time.Millisecond)
	}
	for _, nd := range nodes {
		nd.Census().Sweep()
	}

	before := c.RPCs()
	all := transport.SectionMetrics | transport.SectionHealth | transport.SectionCensus
	reports, err := c.NodeReports(ctx, all)
	if err != nil {
		t.Fatal(err)
	}
	if rpcs, limit := c.RPCs()-before, uint64(len(nodes)+1); rpcs > limit {
		t.Fatalf("full scrape of %d nodes cost %d RPCs, want <= %d", len(nodes), rpcs, limit)
	}
	if len(reports) != len(nodes) {
		t.Fatalf("scraped %d nodes, want %d", len(reports), len(nodes))
	}
	sorted := byID(nodes)
	for i, r := range reports {
		nd := sorted[i]
		if r.Self != nd.Self() {
			t.Fatalf("report %d is %s, want %s (ID order)", i, r.Self.Addr, nd.Self().Addr)
		}
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Self.Addr, r.Err)
		}
		pred, succs := nd.Neighbors()
		if r.Pred != pred || !slices.Equal(r.Succs, succs) {
			t.Fatalf("%s: ring view %v %v, want %v %v", r.Self.Addr, r.Pred, r.Succs, pred, succs)
		}
		if r.RespBytes != nd.RespBytes() || r.StoredBytes != nd.StoredBytes() || r.Blocks != int64(nd.Store().Len()) {
			t.Fatalf("%s: load %d/%d/%d, want %d/%d/%d", r.Self.Addr,
				r.RespBytes, r.StoredBytes, r.Blocks, nd.RespBytes(), nd.StoredBytes(), nd.Store().Len())
		}
		// Metrics section: the node's own registry snapshot.
		if r.Snapshot.Gauges["d2_node_store_bytes"] != nd.StoredBytes() {
			t.Fatalf("%s: snapshot store gauge %d, want %d", r.Self.Addr,
				r.Snapshot.Gauges["d2_node_store_bytes"], nd.StoredBytes())
		}
		// Health section: the engine's verdict and documents.
		e := engines[slices.Index(nodes, nd)]
		if r.State != e.State().String() || r.Status == nil || r.Status.Node != e.Status().Node ||
			len(r.Status.Checks) != len(e.Status().Checks) || r.Rates == nil {
			t.Fatalf("%s: health section state=%q status=%+v rates=%v", r.Self.Addr, r.State, r.Status, r.Rates)
		}
		// Census section: the sweeper's last report, exactly.
		if !reflect.DeepEqual(r.Census, nd.Census().Snapshot()) {
			t.Fatalf("%s: census section\n got %+v\nwant %+v", r.Self.Addr, r.Census, nd.Census().Snapshot())
		}
	}
	if cc := CensusCluster(reports); cc.TotalBlocks != int64(len(ks)) {
		t.Fatalf("census cluster counts %d primary blocks, want %d", cc.TotalBlocks, len(ks))
	}

	// No sections: the plain ring walk carries no section blobs.
	walk, err := c.NodeReports(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range walk {
		if r.Snapshot.Counters != nil || r.Status != nil || r.Rates != nil || r.Census != nil {
			t.Fatalf("%s: section data in a sectionless report", r.Self.Addr)
		}
	}
}

// TestNodeReportMalformedSection feeds a report with one malformed
// section: the good sections still decode, the bad one stays unset and
// is named in Err, and both the doctor and the census documents carry
// the error against the node instead of reading it as a node without
// that subsystem.
func TestNodeReportMalformedSection(t *testing.T) {
	self := transport.PeerInfo{ID: keys.HashString("n1"), Addr: "mem://n1"}
	rep := decodeReport(&transport.NodeReportResp{
		Self:        self,
		State:       "ok",
		MetricsJSON: []byte(`{"counters":{"x":1}}`),
		StatusJSON:  []byte(`{"state":`),
		RatesJSON:   []byte(`{}`),
		CensusJSON:  []byte(`{"files":2,"runs":2}`),
	})
	if rep.Err == nil || !strings.Contains(rep.Err.Error(), "health status section") {
		t.Fatalf("Err = %v, want a health status section error", rep.Err)
	}
	if rep.Status != nil {
		t.Fatalf("malformed status decoded to %+v", rep.Status)
	}
	if rep.Snapshot.Counters["x"] != 1 || rep.Rates == nil || rep.Census == nil || rep.Census.Files != 2 {
		t.Fatalf("good sections lost: %+v", rep)
	}

	doc := DoctorReport([]NodeReport{rep})
	if doc.State != "degraded" {
		t.Fatalf("doctor state %q, want degraded", doc.State)
	}
	if len(doc.Problems) != 1 || doc.Problems[0].Node != string(self.Addr) ||
		doc.Problems[0].Check != "report_decode" || doc.Problems[0].Evidence != rep.Err.Error() {
		t.Fatalf("doctor problems %+v, want one report_decode problem naming %s", doc.Problems, self.Addr)
	}
	if doc.Members[0].Err == "" {
		t.Fatal("doctor member lacks the report error")
	}
	if cc := CensusCluster([]NodeReport{rep}); cc.Nodes[0].Err == "" || cc.TotalFiles != 2 {
		t.Fatalf("census cluster node %+v, want the report error and the decoded census", cc.Nodes[0])
	}
}
