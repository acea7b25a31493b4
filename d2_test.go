package d2_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"testing"
	"time"

	d2 "github.com/defragdht/d2"
	"github.com/defragdht/d2/internal/keys"
)

func fastOptions() d2.NodeOptions {
	return d2.NodeOptions{
		Replicas:          3,
		StabilizeInterval: 10 * time.Millisecond,
		RepairInterval:    30 * time.Millisecond,
		RemoveDelay:       50 * time.Millisecond,
	}
}

func TestClusterBlockRoundTrip(t *testing.T) {
	ctx := context.Background()
	cluster, err := d2.NewCluster(ctx, 5, fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	client, err := cluster.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	k := keys.HashString("facade-block")
	if err := client.Put(ctx, k, []byte("value")); err != nil {
		t.Fatal(err)
	}
	data, err := client.Get(ctx, k)
	if err != nil || string(data) != "value" {
		t.Fatalf("Get = (%q, %v)", data, err)
	}
}

func TestVolumeEndToEnd(t *testing.T) {
	ctx := context.Background()
	cluster, err := d2.NewCluster(ctx, 6, fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	client, err := cluster.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	pub, priv, err := d2.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	vol, err := client.CreateVolume(ctx, "home", priv, d2.VolumeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := vol.MkdirAll(ctx, "/alice/docs"); err != nil {
		t.Fatal(err)
	}
	content := bytes.Repeat([]byte("d2!"), 6000) // > 1 block
	if err := vol.WriteFile(ctx, "/alice/docs/report.txt", content); err != nil {
		t.Fatal(err)
	}
	if err := vol.Sync(ctx); err != nil {
		t.Fatal(err)
	}

	// A second client opens the volume read-only and sees the data.
	client2, err := cluster.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer client2.Close()
	rvol, err := client2.OpenVolume(ctx, "home", pub, nil, d2.VolumeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := rvol.ReadFile(ctx, "/alice/docs/report.txt")
	if err != nil || !bytes.Equal(got, content) {
		t.Fatalf("reader content mismatch: %v", err)
	}
	if err := rvol.WriteFile(ctx, "/x", nil); !errors.Is(err, d2.ErrReadOnly) {
		t.Errorf("read-only volume accepted write: %v", err)
	}

	// Locality cash-out: reading the file again through a fresh client
	// should mostly hit the lookup cache after the first block.
	hits, misses := client2.CacheStats()
	if hits == 0 {
		t.Errorf("no cache hits while reading a multi-block file (hits=%d misses=%d)", hits, misses)
	}
}

// TestOverwriteKeepsSharedBlocks checks that a block two versions of a
// file share survives the overwrite on a live ring. Unchanged blocks keep
// their content-hash keys, so the removals an overwrite queues (and the
// nodes' delayed-removal timers) must not delete them. Cases: an append,
// which keeps every full block, and a revert to the previous content
// within RemoveDelay, which re-puts keys the previous Sync removed.
func TestOverwriteKeepsSharedBlocks(t *testing.T) {
	ctx := context.Background()
	opts := fastOptions()
	opts.RemoveDelay = 300 * time.Millisecond
	cluster, err := d2.NewCluster(ctx, 6, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	writer, err := cluster.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()
	// Write only once the ring has converged: a client that caches a
	// root-block owner from a converging ring can leave the true owner
	// with an older root (a separate defect, tracked in ROADMAP), which
	// would fail this test for a reason other than block removal.
	waitRing(t, ctx, writer, 6)
	pub, priv, err := d2.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	vol, err := writer.CreateVolume(ctx, "keep", priv, d2.VolumeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(3, 5))
	content := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(rng.Uint64())
		}
		return b
	}
	a, b := content(36000), content(36000)
	cases := []struct {
		path     string
		versions [][]byte // written in order, each followed by Sync
	}{
		{"/append", [][]byte{a, append(append([]byte(nil), a...), "fourteen bytes"...)}},
		{"/revert", [][]byte{a, b, a}},
	}
	for _, c := range cases {
		for _, data := range c.versions {
			if err := vol.WriteFile(ctx, c.path, data); err != nil {
				t.Fatal(err)
			}
			if err := vol.Sync(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Let every delayed removal fire, then read through a second client
	// so the writer's caches cannot hide a deleted block.
	time.Sleep(3 * opts.RemoveDelay)
	reader, err := cluster.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()
	rvol, err := reader.OpenVolume(ctx, "keep", pub, nil, d2.VolumeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		got, err := rvol.ReadFile(ctx, c.path)
		if err != nil {
			t.Errorf("%s: read after overwrite: %v", c.path, err)
		} else if !bytes.Equal(got, c.versions[len(c.versions)-1]) {
			t.Errorf("%s: read after overwrite returned other content (%d bytes)", c.path, len(got))
		}
	}
}

func TestClusterSurvivesNodeCrash(t *testing.T) {
	ctx := context.Background()
	cluster, err := d2.NewCluster(ctx, 8, fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	client, err := cluster.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	var ks []d2.Key
	for i := 0; i < 30; i++ {
		k := keys.HashString(fmt.Sprintf("crash-%d", i))
		ks = append(ks, k)
		if err := client.Put(ctx, k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(200 * time.Millisecond) // replica repair tops up

	// Crash two nodes (r=3 tolerates it for every block).
	if err := cluster.CloseNode(0); err != nil {
		t.Fatal(err)
	}
	if err := cluster.CloseNode(3); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond) // ring heals

	for _, k := range ks {
		if _, err := client.Get(ctx, k); err != nil {
			t.Fatalf("block %s lost after crashes: %v", k.Short(), err)
		}
	}
}

func TestTCPNodeAndClient(t *testing.T) {
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
	n3, err := d2.StartNode(ctx, "127.0.0.1:0", n1.Addr(), fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer n3.Close()
	time.Sleep(200 * time.Millisecond)

	client, err := d2.ConnectTCP([]string{n1.Addr(), n2.Addr()}, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	pub, priv, _ := d2.GenerateKey()
	vol, err := client.CreateVolume(ctx, "tcpvol", priv, d2.VolumeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := vol.WriteFile(ctx, "/over-tcp.txt", []byte("wire")); err != nil {
		t.Fatal(err)
	}
	if err := vol.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	rvol, err := client.OpenVolume(ctx, "tcpvol", pub, nil, d2.VolumeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := rvol.ReadFile(ctx, "/over-tcp.txt")
	if err != nil || string(data) != "wire" {
		t.Fatalf("TCP volume read = (%q, %v)", data, err)
	}
}

// TestThousandNodeDeployment reproduces the paper's deployment scale: a
// 1,000-node D2 ring in one process (the paper used 50 Emulab machines
// hosting 1,000 virtual nodes, §9.1).
func TestThousandNodeDeployment(t *testing.T) {
	if testing.Short() {
		t.Skip("1,000-node deployment in -short mode")
	}
	ctx := context.Background()
	opts := fastOptions()
	opts.StabilizeInterval = 50 * time.Millisecond
	opts.RepairInterval = 500 * time.Millisecond
	cluster, err := d2.NewCluster(ctx, 1000, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if cluster.NumNodes() != 1000 {
		t.Fatalf("NumNodes = %d", cluster.NumNodes())
	}
	client, err := cluster.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	pub, priv, _ := d2.GenerateKey()
	vol, err := client.CreateVolume(ctx, "bigring", priv, d2.VolumeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := vol.MkdirAll(ctx, "/data"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		path := fmt.Sprintf("/data/file%02d", i)
		if err := vol.WriteFile(ctx, path, bytes.Repeat([]byte{byte(i)}, 9000)); err != nil {
			t.Fatalf("write %s: %v", path, err)
		}
	}
	if err := vol.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	_ = pub
	for i := 0; i < 20; i++ {
		path := fmt.Sprintf("/data/file%02d", i)
		data, err := vol.ReadFile(ctx, path)
		if err != nil || len(data) != 9000 || data[0] != byte(i) {
			t.Fatalf("read %s: len=%d err=%v", path, len(data), err)
		}
	}
}
