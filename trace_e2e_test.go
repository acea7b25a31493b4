package d2_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	d2 "github.com/defragdht/d2"
	"github.com/defragdht/d2/internal/keys"
	"github.com/defragdht/d2/internal/obs/tracing"
)

// TestClusterTraceAssembly is the d2ctl-trace path end to end: a 3-node
// TCP cluster serves a multi-owner batched read under a forced trace, and
// FetchClusterTrace scrapes every member's sink into one span tree that
// covers the client and at least two distinct server nodes.
func TestClusterTraceAssembly(t *testing.T) {
	ctx := context.Background()
	opts := fastOptions()
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

	client, err := d2.ConnectTCP([]string{nodes[0].Addr()}, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// Hashed keys scatter across the ring, so with 3 nodes a 24-key batch
	// reaches multiple owner groups — the multi-owner read the trace must
	// cover.
	var ks []d2.Key
	for i := 0; i < 24; i++ {
		k := keys.HashString(fmt.Sprintf("traced-block-%d", i))
		if err := client.Put(ctx, k, []byte("traced-payload")); err != nil {
			t.Fatal(err)
		}
		ks = append(ks, k)
	}

	sctx, root := client.StartTrace(ctx, "test.trace")
	got, err := client.GetMany(sctx, ks)
	root.EndErr(err)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ks) {
		t.Fatalf("GetMany returned %d blocks, want %d", len(got), len(ks))
	}

	spans, err := client.FetchClusterTrace(ctx, root.TraceID())
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatal("FetchClusterTrace returned no spans")
	}

	// One assembled tree, rooted at the forced op.
	tree := tracing.Assemble(spans)
	if len(tree) != 1 {
		for _, n := range tree {
			t.Logf("top-level span: %s on %s (parent %x)", n.Span.Name, n.Span.Node, n.Span.Parent)
		}
		t.Fatalf("assembled %d top-level spans, want 1 rooted tree", len(tree))
	}
	if tree[0].Span.Name != "test.trace" {
		t.Fatalf("tree root is %q, want test.trace", tree[0].Span.Name)
	}

	// The trace must cover work on at least two distinct server nodes
	// (plus the client's own spans).
	servers := map[string]bool{}
	var serves int
	for _, sp := range spans {
		for _, n := range nodes {
			if sp.Node == n.Addr() {
				servers[sp.Node] = true
			}
		}
		if sp.Name == "serve.multi_get" {
			serves++
		}
	}
	if len(servers) < 2 {
		t.Fatalf("trace touches %d server nodes (%v), want >= 2", len(servers), servers)
	}
	if serves == 0 {
		t.Fatal("trace has no serve.multi_get spans")
	}
	if n := tracing.NodeCount(spans); n < 3 {
		t.Fatalf("NodeCount = %d, want >= 3 (client + 2 servers)", n)
	}

}

// TestMemClusterForcedTrace checks the in-process cluster records the same
// span shapes as TCP: a forced Put leaves the root plus its lookup and rpc
// children in the client's sink.
func TestMemClusterForcedTrace(t *testing.T) {
	ctx := context.Background()
	cluster, err := d2.NewCluster(ctx, 3, fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	client, err := cluster.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	sctx, root := client.StartTrace(ctx, "test.op")
	err = client.Put(sctx, keys.HashString("evt-block"), []byte("x"))
	root.EndErr(err)
	if err != nil {
		t.Fatal(err)
	}
	if root.TraceID() == 0 {
		t.Fatal("forced trace has zero ID")
	}
	names := map[string]bool{}
	for _, sp := range client.TraceSpans() {
		if sp.Trace == root.TraceID() {
			names[sp.Name] = true
		}
	}
	for _, want := range []string{"test.op", "client.put", "rpc.put"} {
		if !names[want] {
			t.Fatalf("client sink missing %q span; have %v", want, names)
		}
	}
}
