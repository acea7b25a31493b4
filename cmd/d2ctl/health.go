package main

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	d2 "github.com/defragdht/d2"
)

// runDoctor prints a one-shot cluster health report: the overall
// verdict, the §10 load-imbalance check, a per-node table, and — the
// point of the exercise — every failing or degraded check with the node
// responsible. Exits non-zero when the cluster is failing, so scripts
// and CI can gate on it; -o json emits the raw report instead of the
// rendered tables.
func runDoctor(ctx context.Context, client *d2.Client, jsonOut bool) error {
	nodes, err := scrape(ctx, client, d2.SectionHealth)
	if err != nil {
		return err
	}
	report := d2.DoctorReport(nodes)
	if jsonOut {
		if err := printJSON(report); err != nil {
			return err
		}
		if report.State == "failing" {
			return errClusterFailing
		}
		return nil
	}

	fmt.Printf("cluster state: %s (%d nodes)\n", strings.ToUpper(report.State), report.Nodes)
	fmt.Printf("%s: %s  %.3f (warn >= %.2f, fail >= %.2f)\n",
		report.Imbalance.Name, report.Imbalance.State,
		report.Imbalance.Value, report.Imbalance.Warn, report.Imbalance.Fail)

	fmt.Printf("\n%-22s %-9s %8s %10s %10s  %s\n",
		"ADDR", "STATE", "BLOCKS", "STORED", "PRIMARY", "WORST CHECK")
	for _, m := range report.Members {
		worst := "-"
		if m.Status != nil {
			for _, c := range m.Status.Checks {
				if c.State != "ok" {
					worst = fmt.Sprintf("%s=%s (%.4g)", c.Name, c.State, c.Value)
					break
				}
			}
		}
		fmt.Printf("%-22s %-9s %8d %10s %10s  %s\n",
			m.Addr, m.State, m.Blocks, fmtBytes(m.StoredBytes), fmtBytes(m.RespBytes), worst)
	}

	if len(report.Problems) == 0 {
		fmt.Println("\nno problems found")
	} else {
		fmt.Printf("\nproblems (%d):\n", len(report.Problems))
		for _, p := range report.Problems {
			fmt.Printf("  [%s] %s: %s — %s\n", strings.ToUpper(p.State), p.Node, p.Check, p.Evidence)
		}
	}
	if report.State == "failing" {
		return errClusterFailing
	}
	return nil
}

// runWatch refreshes a live cluster table every interval, top-style. The
// rates shown are true per-second rates from each node's history deltas
// (computed node-side over its lookback window), not cumulative-counter
// averages. n limits the number of refreshes (0 = forever).
func runWatch(ctx context.Context, client *d2.Client, interval time.Duration, n int) error {
	for i := 0; n <= 0 || i < n; i++ {
		if i > 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(interval):
			}
		}
		nodes, err := scrape(ctx, client, d2.SectionHealth)
		if err != nil {
			return err
		}
		// Clear the screen and home the cursor between refreshes, but only
		// after the first paint so a single snapshot (or an error) scrolls
		// normally.
		if n != 1 {
			fmt.Print("\x1b[2J\x1b[H")
		}
		printWatchTable(nodes)
	}
	return nil
}

// printWatchTable renders one watch refresh.
func printWatchTable(nodes []d2.NodeReport) {
	fmt.Printf("d2 watch — %d nodes — %s\n\n", len(nodes), time.Now().Format("15:04:05"))
	fmt.Printf("%-22s %-9s %8s %10s %9s %9s %6s %8s %6s  %s\n",
		"ADDR", "STATE", "BLOCKS", "STORED", "RPC/S", "WIRE/S", "POOL", "DEFICIT", "FRAG", "WORST CHECK")
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].RespBytes > nodes[j].RespBytes })
	for _, nd := range nodes {
		var rps, wire float64
		var pool, deficit int64
		worst, frag := "-", "-"
		if nd.Rates != nil {
			for name, v := range nd.Rates.Counters {
				if strings.HasPrefix(name, "d2_rpc_server_total") {
					rps += v
				}
				if strings.HasPrefix(name, "d2_tcp_wire_bytes_total") {
					wire += v
				}
			}
			pool = nd.Rates.Gauges["d2_tcp_pool_conns"]
			deficit = nd.Rates.Gauges["d2_node_replica_deficit"]
			// The census gauge rides the same history samples as every
			// other metric, so successive refreshes show the locality
			// trend as the balancer works.
			if m := nd.Rates.Gauges["d2_census_frag_ratio_milli"]; m > 0 {
				frag = fmt.Sprintf("%.2f", float64(m)/1000)
			}
		}
		if nd.Status != nil {
			for _, c := range nd.Status.Checks {
				if c.State != "ok" {
					worst = fmt.Sprintf("%s=%s", c.Name, c.State)
					break
				}
			}
		}
		fmt.Printf("%-22s %-9s %8d %10s %9.1f %8s/s %6d %8d %6s  %s\n",
			nd.Self.Addr, nd.State, nd.Blocks, fmtBytes(nd.StoredBytes),
			rps, fmtBytes(int64(wire)), pool, deficit, frag, worst)
		printReportErr(nd)
	}
}
