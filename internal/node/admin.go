package node

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"

	"github.com/defragdht/d2/internal/obs"
	"github.com/defragdht/d2/internal/obs/census"
	"github.com/defragdht/d2/internal/obs/history"
	"github.com/defragdht/d2/internal/obs/tracing"
	"github.com/defragdht/d2/internal/transport"
)

// maxRingWalk bounds a ring walk (a broken successor chain could
// otherwise loop forever through stale entries).
const maxRingWalk = 4096

// NodeReport is one ring member's decoded report: identity, ring
// neighbors, and health state always; load and the asked-for sections
// when any section was asked.
type NodeReport struct {
	Self  transport.PeerInfo
	Pred  transport.PeerInfo
	Succs []transport.PeerInfo
	// RespBytes is the primary-responsibility load (§6), StoredBytes the
	// total stored volume, and Blocks the store entry count (all zero in
	// a walk with no sections).
	RespBytes   int64
	StoredBytes int64
	Blocks      int64
	// State is the node's own health verdict ("unknown" for nodes
	// without a health engine).
	State string
	// Snapshot is the metrics section (zero unless asked for).
	Snapshot obs.Snapshot
	// Status and Rates are the health section (nil unless asked for and
	// the node runs a health engine).
	Status *history.Status
	Rates  *history.Rates
	// Census is the census section (nil unless asked for and the node
	// runs a census sweeper).
	Census *census.Report
	// Err names the sections that failed to decode; the others are
	// still filled in.
	Err error
}

// NodeReports walks the ring once, asking every member for the given
// sections, and returns the reports in ID order. The walk follows each
// report's successor list, so it costs one RPC per live member plus one
// per dead member it steps over. A dead member is skipped through the
// previous member's successor list; the doctor detects its absence
// through the survivors' replica-deficit checks, not through the walk.
func (c *Client) NodeReports(ctx context.Context, sections transport.Sections) ([]NodeReport, error) {
	req := &transport.NodeReportReq{Sections: sections}
	var resp *transport.NodeReportResp
	var err error
	for _, seed := range c.seeds {
		resp, err = transport.Expect[*transport.NodeReportResp](c.call(ctx, seed, req))
		if err == nil {
			break
		}
	}
	if resp == nil {
		return nil, fmt.Errorf("node: no reachable seed: %w", err)
	}

	var out []NodeReport
	visited := make(map[transport.Addr]bool)
	dead := make(map[transport.Addr]bool)
	for resp != nil && len(out) < maxRingWalk {
		visited[resp.Self.Addr] = true
		out = append(out, decodeReport(resp))
		resp = c.nextReport(ctx, req, resp.Succs, visited, dead)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Self.ID.Less(out[j].Self.ID) })
	return out, nil
}

// nextReport asks the walk's next member for its report: the first
// successor, or — when that one is dead — the next live entry of the
// successor list. It returns nil once the first successor was already
// visited (the walk closed the ring) or no entry answers.
func (c *Client) nextReport(ctx context.Context, req *transport.NodeReportReq, succs []transport.PeerInfo, visited, dead map[transport.Addr]bool) *transport.NodeReportResp {
	for i, p := range succs {
		if visited[p.Addr] {
			if i == 0 {
				return nil
			}
			continue
		}
		if dead[p.Addr] {
			continue
		}
		resp, err := transport.Expect[*transport.NodeReportResp](c.call(ctx, p.Addr, req))
		if err == nil {
			return resp
		}
		dead[p.Addr] = true
	}
	return nil
}

// decodeReport unpacks a report's JSON sections. A section that fails to
// decode stays unset and is named in Err, so a malformed blob never reads
// as a node without that subsystem.
func decodeReport(r *transport.NodeReportResp) NodeReport {
	rep := NodeReport{
		Self:        r.Self,
		Pred:        r.Pred,
		Succs:       r.Succs,
		RespBytes:   r.RespBytes,
		StoredBytes: r.StoredBytes,
		Blocks:      r.Blocks,
		State:       r.State,
	}
	var snap *obs.Snapshot
	rep.Err = errors.Join(
		decodeSection("metrics", r.MetricsJSON, &snap),
		decodeSection("health status", r.StatusJSON, &rep.Status),
		decodeSection("health rates", r.RatesJSON, &rep.Rates),
		decodeSection("census", r.CensusJSON, &rep.Census),
	)
	if snap != nil {
		rep.Snapshot = *snap
	}
	return rep
}

// decodeSection unmarshals one section blob into a fresh *dst, leaving
// *dst nil when the blob is empty (section not asked for or not running).
func decodeSection[T any](name string, blob []byte, dst **T) error {
	if len(blob) == 0 {
		return nil
	}
	v := new(T)
	if err := json.Unmarshal(blob, v); err != nil {
		return fmt.Errorf("%s section: %w", name, err)
	}
	*dst = v
	return nil
}

// errString renders a report error for the JSON documents ("" for nil).
func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// DoctorReport evaluates the doctor's cluster-level checks (§10 load
// imbalance, worst member state, per-node problems) over reports that
// carry the health section — the document behind `d2ctl doctor`.
func DoctorReport(reports []NodeReport) history.ClusterReport {
	members := make([]history.ClusterNode, 0, len(reports))
	for _, r := range reports {
		members = append(members, history.ClusterNode{
			Addr:        string(r.Self.Addr),
			State:       r.State,
			RespBytes:   r.RespBytes,
			StoredBytes: r.StoredBytes,
			Blocks:      r.Blocks,
			Status:      r.Status,
			Rates:       r.Rates,
			Err:         errString(r.Err),
		})
	}
	return history.BuildClusterReport(members)
}

// CensusCluster merges the census sections of reports into the §5-style
// cluster metrics (locality score, per-volume fragmentation, §10
// imbalance, replica spread) — the document behind `d2ctl frag/map`.
func CensusCluster(reports []NodeReport) *census.Cluster {
	nodes := make([]census.NodeReport, 0, len(reports))
	for _, r := range reports {
		nodes = append(nodes, census.NodeReport{
			Addr: string(r.Self.Addr),
			ID:   r.Self.ID.Short(),
			Rep:  r.Census,
			Err:  errString(r.Err),
		})
	}
	return census.BuildCluster(nodes)
}

// FetchClusterTrace scrapes every ring member's span sink for one trace
// (TraceFetch RPC), merges the results with the client's own local spans,
// and returns the combined set sorted by start time — the raw material
// for tracing.Assemble's cross-node span tree. Unreachable members are
// skipped: a partial tree still renders, with the missing node's spans
// surfacing as orphans.
func (c *Client) FetchClusterTrace(ctx context.Context, trace uint64) ([]tracing.Span, error) {
	if trace == 0 {
		return nil, fmt.Errorf("node: FetchClusterTrace needs a trace ID")
	}
	members, err := c.NodeReports(ctx, 0)
	if err != nil {
		return nil, err
	}
	var spans []tracing.Span
	for _, m := range members {
		resp, err := transport.Expect[*transport.TraceFetchResp](
			c.call(ctx, m.Self.Addr, &transport.TraceFetchReq{Trace: trace}))
		if err != nil {
			continue
		}
		spans = append(spans, resp.Spans...)
	}
	// The client's own spans (op roots, lookups, batch groups) live in its
	// local sink, not on any ring member.
	if sink := c.tracer.Sink(); sink != nil {
		spans = append(spans, sink.Trace(trace)...)
	}
	return tracing.SortedByStart(spans), nil
}
