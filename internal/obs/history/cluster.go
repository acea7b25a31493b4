package history

import (
	"fmt"
	"time"

	"github.com/defragdht/d2/internal/stats"
)

// ClusterNode is one ring member's health as gathered by a node-report
// walk: identity, load, and the node's own status/rates documents
// (parsed from the wire JSON; either may be nil for nodes without an
// engine, e.g. in-memory test clusters). Err is set when the node's
// report failed to decode.
type ClusterNode struct {
	Addr        string  `json:"addr"`
	State       string  `json:"state"`
	RespBytes   int64   `json:"resp_bytes"`
	StoredBytes int64   `json:"stored_bytes"`
	Blocks      int64   `json:"blocks"`
	Status      *Status `json:"status,omitempty"`
	Rates       *Rates  `json:"rates,omitempty"`
	Err         string  `json:"error,omitempty"`
}

// Problem names one failing or degraded check on one node.
type Problem struct {
	Node     string  `json:"node"`
	Check    string  `json:"check"`
	State    string  `json:"state"`
	Value    float64 `json:"value"`
	Evidence string  `json:"evidence,omitempty"`
}

// ClusterReport is `d2ctl doctor`'s document: the worst state across
// the ring, the §10 load-imbalance check evaluated over per-node
// responsible-range loads, and every per-node problem found.
type ClusterReport struct {
	At        time.Time     `json:"at"`
	Nodes     int           `json:"nodes"`
	State     string        `json:"state"`
	Imbalance CheckStatus   `json:"imbalance"`
	Members   []ClusterNode `json:"members"`
	Problems  []Problem     `json:"problems,omitempty"`
}

// Imbalance thresholds: the paper's §10 experiments hold the normalized
// standard deviation of per-node load near 0.25 under defragmentation;
// a uniform-hashing ring sits far higher. We warn past 0.45 and fail
// past 0.85 (a nearly-idle or single-node ring reports 0).
const (
	imbalanceWarn = 0.45
	imbalanceFail = 0.85
)

// BuildClusterReport evaluates cluster-level health over per-node
// results: overall state is the worst member state escalated by the
// imbalance check, and Problems collects every non-ok check naming its
// node — `d2ctl doctor`'s "which node, which check" answer. A member
// whose report failed to decode is a degraded report_decode problem: its
// health is unknown, not healthy.
func BuildClusterReport(members []ClusterNode) ClusterReport {
	r := ClusterReport{At: time.Now(), Nodes: len(members), Members: members}

	worst := StateOK
	loads := make([]float64, 0, len(members))
	for _, m := range members {
		loads = append(loads, float64(m.RespBytes))
		st := stateFromString(m.State)
		if m.Err != "" {
			st = max(st, StateDegraded)
			r.Problems = append(r.Problems, Problem{
				Node:     m.Addr,
				Check:    "report_decode",
				State:    StateDegraded.String(),
				Evidence: m.Err,
			})
		}
		if st > worst {
			worst = st
		}
		if m.Status == nil {
			continue
		}
		for _, c := range m.Status.Checks {
			if c.State == StateOK.String() {
				continue
			}
			r.Problems = append(r.Problems, Problem{
				Node:     m.Addr,
				Check:    c.Name,
				State:    c.State,
				Value:    c.Value,
				Evidence: c.Evidence,
			})
		}
	}

	nsd := 0.0
	if len(loads) > 1 && stats.Sum(loads) > 0 {
		nsd = stats.NormStdDev(loads)
	}
	imb := StateOK
	switch {
	case nsd >= imbalanceFail:
		imb = StateFailing
	case nsd >= imbalanceWarn:
		imb = StateDegraded
	}
	r.Imbalance = CheckStatus{
		Name:  "load_imbalance",
		State: imb.String(),
		Value: nsd,
		Warn:  imbalanceWarn,
		Fail:  imbalanceFail,
		Evidence: fmt.Sprintf(
			"normalized stddev of responsible-range bytes across %d nodes: %.3f (warn >= %.2g, fail >= %.2g)",
			len(loads), nsd, imbalanceWarn, imbalanceFail),
	}
	if imb > worst {
		worst = imb
	}
	if imb != StateOK {
		r.Problems = append(r.Problems, Problem{
			Node:     "*",
			Check:    r.Imbalance.Name,
			State:    r.Imbalance.State,
			Value:    r.Imbalance.Value,
			Evidence: r.Imbalance.Evidence,
		})
	}
	r.State = worst.String()
	return r
}

// stateFromString parses a wire state name; unknown strings (including
// "unknown" from engine-less nodes) count as ok so bare test clusters
// don't read as sick.
func stateFromString(s string) State {
	for i, n := range stateNames {
		if n == s {
			return State(i)
		}
	}
	return StateOK
}
