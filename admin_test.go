package d2_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	d2 "github.com/defragdht/d2"
)

// TestAdminPlane starts a 3-node TCP ring, drives traffic through a
// client, and checks every admin endpoint on each node.
func TestAdminPlane(t *testing.T) {
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

	client, err := d2.ConnectTCP([]string{n1.Addr()}, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	_, priv, _ := d2.GenerateKey()
	vol, err := client.CreateVolume(ctx, "adminvol", priv, d2.VolumeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := vol.WriteFile(ctx, "/probe.txt", []byte("observable")); err != nil {
		t.Fatal(err)
	}
	if err := vol.Sync(ctx); err != nil {
		t.Fatal(err)
	}

	for i, nd := range []*d2.Node{n1, n2, n3} {
		srv := httptest.NewServer(nd.AdminHandler())
		get := func(path string) (int, string) {
			resp, err := srv.Client().Get(srv.URL + path)
			if err != nil {
				t.Fatalf("node %d GET %s: %v", i, path, err)
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			return resp.StatusCode, string(body)
		}

		code, body := get("/healthz")
		if code != 200 {
			t.Fatalf("node %d /healthz: code=%d body=%q", i, code, body)
		}
		var health struct {
			Node   string `json:"node"`
			State  string `json:"state"`
			Checks []struct {
				Name  string `json:"name"`
				State string `json:"state"`
			} `json:"checks"`
		}
		if err := json.Unmarshal([]byte(body), &health); err != nil {
			t.Fatalf("node %d /healthz not JSON: %v (%q)", i, err, body)
		}
		if health.Node != nd.Addr() || health.State == "" || len(health.Checks) == 0 {
			t.Fatalf("node %d /healthz incomplete: %+v", i, health)
		}
		if code, body := get("/historyz?view=rates"); code != 200 || !json.Valid([]byte(body)) {
			t.Fatalf("node %d /historyz: code=%d body=%q", i, code, body)
		}
		if code, body := get("/metrics"); code != 200 ||
			!strings.Contains(body, "d2_node_store_bytes") ||
			!strings.Contains(body, "d2_rpc_server_total") {
			t.Fatalf("node %d /metrics missing expected series (code=%d)", i, code)
		}
		if code, body := get("/statsz"); code != 200 || !json.Valid([]byte(body)) {
			t.Fatalf("node %d /statsz: code=%d valid=%v", i, code, json.Valid([]byte(body)))
		}
		code, body = get("/ringz")
		if code != 200 {
			t.Fatalf("node %d /ringz: code=%d", i, code)
		}
		var ring struct {
			Self  struct{ ID, Addr string }
			Succs []struct{ ID, Addr string }
		}
		if err := json.Unmarshal([]byte(body), &ring); err != nil {
			t.Fatalf("node %d /ringz: %v", i, err)
		}
		if ring.Self.Addr != nd.Addr() || len(ring.Succs) == 0 {
			t.Fatalf("node %d /ringz: self=%q succs=%d", i, ring.Self.Addr, len(ring.Succs))
		}
		if code, _ := get("/eventz"); code != 200 {
			t.Fatalf("node %d /eventz: code=%d", i, code)
		}
		if code, body := get("/debug/pprof/"); code != 200 || !strings.Contains(body, "goroutine") {
			t.Fatalf("node %d /debug/pprof/: code=%d", i, code)
		}
		srv.Close()
	}

	// The DHT scrape path must see all three nodes with traffic recorded.
	stats, err := client.NodeReports(ctx, d2.SectionMetrics)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 3 {
		t.Fatalf("NodeReports returned %d nodes, want 3", len(stats))
	}
	var stored int64
	for _, ns := range stats {
		stored += ns.StoredBytes
	}
	if stored == 0 {
		t.Fatal("scraped cluster reports zero stored bytes after writes")
	}
}
