package node

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"github.com/defragdht/d2/internal/keys"
	"github.com/defragdht/d2/internal/transport"
)

// putFile stores nblocks contiguous blocks (a D2 file run) starting at
// base.WithBlock(1) and returns their keys in order.
func putFile(t testing.TB, c *Client, base keys.Key, nblocks int) []keys.Key {
	t.Helper()
	ctx := context.Background()
	ks := make([]keys.Key, nblocks)
	for b := 0; b < nblocks; b++ {
		ks[b] = base.WithBlock(uint64(b + 1))
		if err := c.Put(ctx, ks[b], blockPayload(b)); err != nil {
			t.Fatalf("put block %d: %v", b, err)
		}
	}
	return ks
}

func blockPayload(b int) []byte {
	return []byte(fmt.Sprintf("block-%04d-payload", b))
}

func TestGetManyContiguousFile(t *testing.T) {
	net := transport.NewMemNetwork(0)
	nodes := startRing(t, net, 8, nil)
	defer closeAll(t, nodes)
	c := newClient(t, net, nodes)
	defer c.Close()

	base := keys.HashString("batch-file").FileBase()
	ks := putFile(t, c, base, 20)

	// Include an absent key and a duplicate: absent keys are omitted,
	// duplicates fetched once.
	req := append(append([]keys.Key(nil), ks...), base.WithBlock(999), ks[3])
	got, err := c.GetMany(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ks) {
		t.Fatalf("got %d blocks, want %d", len(got), len(ks))
	}
	for b, k := range ks {
		if !bytes.Equal(got[k], blockPayload(b)) {
			t.Fatalf("block %d: got %q", b, got[k])
		}
	}
	if _, ok := got[base.WithBlock(999)]; ok {
		t.Fatal("absent key present in result")
	}
}

func TestGetManyAfterOwnerCrash(t *testing.T) {
	net := transport.NewMemNetwork(0)
	nodes := startRing(t, net, 8, nil)
	defer closeAll(t, nodes)
	c := newClient(t, net, nodes)
	defer c.Close()

	ctx := context.Background()
	base := keys.HashString("crash-batch").FileBase()
	ks := putFile(t, c, base, 10)
	time.Sleep(150 * time.Millisecond) // let repair top up replicas

	// Crash the cached owner of the run: GetMany must fall back through
	// fresh lookups and replicas rather than fail on the stale cache.
	owner, err := c.Lookup(ctx, ks[0])
	if err != nil {
		t.Fatal(err)
	}
	var rest []*Node
	for _, n := range nodes {
		if n.Self().Addr == owner.Addr {
			if err := n.Close(); err != nil {
				t.Fatal(err)
			}
			continue
		}
		rest = append(rest, n)
	}
	waitConverged(t, rest, 10*time.Second)

	got, err := c.GetMany(ctx, ks)
	if err != nil {
		t.Fatal(err)
	}
	for b, k := range ks {
		if !bytes.Equal(got[k], blockPayload(b)) {
			t.Fatalf("block %d lost after owner crash", b)
		}
	}
}

func TestGetManyFollowsPointerRedirects(t *testing.T) {
	net := transport.NewMemNetwork(0)
	nodes := startRing(t, net, 6, nil)
	defer closeAll(t, nodes)
	c := newClient(t, net, nodes)
	defer c.Close()

	ctx := context.Background()
	base := keys.HashString("ptr-batch").FileBase()
	ks := putFile(t, c, base, 4)

	// Replace one block at its owner with a pointer to a node that holds
	// the data (a pending §6 balance move).
	owner, err := c.Lookup(ctx, ks[1])
	if err != nil {
		t.Fatal(err)
	}
	var target *Node
	for _, n := range nodes {
		if n.Self().Addr != owner.Addr {
			target = n
			break
		}
	}
	target.Store().Put(ks[1], blockPayload(1), 0, time.Now())
	for _, n := range nodes {
		if n.Self().Addr == owner.Addr {
			n.Store().Delete(ks[1])
			n.Store().PutPointer(ks[1], target.Self().Addr, int64(len(blockPayload(1))), time.Now())
		}
	}

	got, err := c.GetMany(ctx, ks)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[ks[1]], blockPayload(1)) {
		t.Fatalf("redirected block: got %q", got[ks[1]])
	}
}

// TestBatchedReadRPCSavings is the PR's acceptance check: on a 50-node
// ring, reading a 64-block D2 file via GetMany must cost at least 5×
// fewer RPCs than reading it block by block.
func TestBatchedReadRPCSavings(t *testing.T) {
	if testing.Short() {
		t.Skip("50-node ring in -short mode")
	}
	net := transport.NewMemNetwork(0)
	nodes := startRing(t, net, 50, nil)
	defer closeAll(t, nodes)
	c := newClient(t, net, nodes)
	defer c.Close()

	ctx := context.Background()
	base := keys.HashString("rpc-count-file").FileBase()
	ks := putFile(t, c, base, 64)

	// Per-block read with a cold cache (fresh client state via a second
	// client would also redo lookups; reuse this one and count deltas).
	start := c.RPCs()
	for _, k := range ks {
		if _, err := c.Get(ctx, k); err != nil {
			t.Fatal(err)
		}
	}
	perBlock := c.RPCs() - start

	start = c.RPCs()
	got, err := c.GetMany(ctx, ks)
	if err != nil {
		t.Fatal(err)
	}
	batched := c.RPCs() - start
	if len(got) != len(ks) {
		t.Fatalf("batched read returned %d blocks, want %d", len(got), len(ks))
	}
	if batched*5 > perBlock {
		t.Fatalf("batched read used %d RPCs vs %d per-block: less than the required 5x saving", batched, perBlock)
	}
	t.Logf("64-block file on 50 nodes: per-block %d RPCs, batched %d RPCs (%.1fx)",
		perBlock, batched, float64(perBlock)/float64(batched))
}
