package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/defragdht/d2/internal/fs"
	"github.com/defragdht/d2/internal/node"
	"github.com/defragdht/d2/internal/obs"
	"github.com/defragdht/d2/internal/obs/tracing"
	"github.com/defragdht/d2/internal/store/disk"
	"github.com/defragdht/d2/internal/transport"
)

// Ring shape shared by every workload: six nodes on loopback TCP with
// r=3, each on its own disk engine, and one client.
const (
	ringNodes    = 6
	ringReplicas = 3
)

// ring is one running cluster plus the client the workload drives. With a
// recorder, every layer boundary (client block service, each transport
// endpoint, each node's engine) is wrapped; without one the program's own
// types are used directly, so untraced runs carry no wrapper at all.
type ring struct {
	dir    string
	nodes  []*node.Node
	stores []*disk.Store
	regs   []*obs.Registry // one per node, shared with its transport
	client *node.Client
	creg   *obs.Registry // the client's registry, shared with its transport
	svc    fs.SegmentBlockService
}

// startRing boots the ring under dir with the given fsync policy and waits
// until every node's predecessor and successor list match the ring order,
// so the first timed write lands on its final replica set.
func startRing(ctx context.Context, dir string, policy disk.FsyncPolicy, rec *recorder) (*ring, error) {
	r := &ring{dir: dir}
	ok := false
	defer func() {
		if !ok {
			r.close()
		}
	}()
	for i := 0; i < ringNodes; i++ {
		tr, err := transport.ListenTCP("127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("listen: %w", err)
		}
		reg := obs.New()
		tr.UseMetrics(transport.NewRPCMetrics(reg))
		st, err := disk.Open(filepath.Join(dir, fmt.Sprintf("node%d", i)), disk.Options{Fsync: policy, Metrics: reg})
		if err != nil {
			_ = tr.Close()
			return nil, fmt.Errorf("open engine: %w", err)
		}
		// Defaults as d2node sets them: a per-node tracer with sampling
		// off, every interval at its node.Config default.
		cfg := node.Config{
			Replicas: ringReplicas,
			Metrics:  reg,
			Tracer:   tracing.New(tracing.Config{Node: string(tr.Addr())}),
			Store:    rec.wrapEngine(st, i),
		}
		nd := node.Start(rec.wrapTransport(tr, i), cfg)
		r.nodes = append(r.nodes, nd)
		r.stores = append(r.stores, st)
		r.regs = append(r.regs, reg)
		if i > 0 {
			jctx, cancel := context.WithTimeout(ctx, 10*time.Second)
			err := nd.Join(jctx, r.nodes[0].Self().Addr)
			cancel()
			if err != nil {
				return nil, fmt.Errorf("node %d join: %w", i, err)
			}
		}
	}
	if err := r.waitConverged(ctx, 30*time.Second); err != nil {
		return nil, err
	}
	tr, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("client listen: %w", err)
	}
	r.creg = obs.New()
	tr.UseMetrics(transport.NewRPCMetrics(r.creg))
	r.client, err = node.NewClient(rec.wrapTransport(tr, clientEndpoint), node.ClientConfig{
		Seeds:    []transport.Addr{r.nodes[0].Self().Addr, r.nodes[ringNodes-1].Self().Addr},
		Replicas: ringReplicas,
		Metrics:  r.creg,
		Tracer:   tracing.New(tracing.Config{Node: "client@" + string(tr.Addr())}),
	})
	if err != nil {
		_ = tr.Close()
		return nil, fmt.Errorf("client: %w", err)
	}
	r.svc = rec.wrapService(r.client)
	ok = true
	return r, nil
}

// waitConverged polls until each node's predecessor and full successor
// list agree with the ID-sorted ring.
func (r *ring) waitConverged(ctx context.Context, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for !r.converged() {
		if time.Now().After(deadline) {
			return fmt.Errorf("ring did not converge within %v", timeout)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
	}
	return nil
}

func (r *ring) converged() bool {
	order := make([]transport.PeerInfo, len(r.nodes))
	for i, nd := range r.nodes {
		order[i] = nd.Self()
	}
	sort.Slice(order, func(i, j int) bool { return order[i].ID.Less(order[j].ID) })
	at := make(map[transport.Addr]int, len(order))
	for i, p := range order {
		at[p.Addr] = i
	}
	for _, nd := range r.nodes {
		i := at[nd.Self().Addr]
		pred, succs := nd.Neighbors()
		if pred.Addr != order[(i+len(order)-1)%len(order)].Addr {
			return false
		}
		want := len(order) - 1
		if want > 4 {
			want = 4 // node.Config's default successor-list length at r=3
		}
		if len(succs) < want {
			return false
		}
		for j := 0; j < want; j++ {
			if succs[j].Addr != order[(i+1+j)%len(order)].Addr {
				return false
			}
		}
	}
	return true
}

// counter sums a counter over every node registry.
func (r *ring) counter(name string) uint64 {
	var n uint64
	for _, reg := range r.regs {
		n += reg.Counter(name).Value()
	}
	return n
}

// histSum sums a histogram's observed total over every node registry.
func (r *ring) histSum(name string) int64 {
	var n int64
	for _, reg := range r.regs {
		n += reg.Histogram(name, obs.LatencyBuckets).Sum()
	}
	return n
}

// close stops the client and nodes, closes the engines and deletes the
// data directory.
func (r *ring) close() {
	if r.client != nil {
		_ = r.client.Close()
	}
	for _, nd := range r.nodes {
		_ = nd.Close()
	}
	for _, st := range r.stores {
		_ = st.Close()
	}
	_ = os.RemoveAll(r.dir)
}
