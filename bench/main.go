// Command bench is D2's end-to-end benchmark. It runs one workload on a
// 6-node loopback-TCP ring (r=3, disk engines) inside this process and
// prints a JSON summary as the last line of standard output:
//
//	go build -o d2bench . && ./d2bench --workload write-durable --seed 1 --seconds 15 --trace 0
//
// Workloads: write-durable (WriteFile+Sync, fsync=always), read-seq
// (ReadStream then whole-file ReadFile over a set twice the read cache,
// fsync=interval) and small-tasks (open-loop access groups and small
// updates, fsync=always). --trace 0 reports end-to-end metrics measured
// without any wrapper; --trace 1 runs the workload for half the time
// untraced and half with every layer wrapped, and reports the per-layer
// breakdown.
// Data directories and span dumps go under --out.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// rounds is how many independent rings a --trace 0 run builds, one after
// another. Each round sets up a fresh ring and data set (timed: setup_s
// is the median of the rounds) and then measures for a third of the run,
// so one run's figures pool three ring layouts.
const rounds = 3

func main() {
	workload := flag.String("workload", "", "write-durable, read-seq or small-tasks")
	seed := flag.Uint64("seed", 1, "workload seed: the only source of generated paths, sizes, bytes and op order")
	seconds := flag.Int("seconds", 15, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for engine data and span dumps")
	flag.Parse()
	w, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: need --workload write-durable|read-seq|small-tasks, --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}
	if err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *out); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// summary is the last line of output.
type summary struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(w *workload, seed uint64, d time.Duration, traced bool, out string) error {
	ctx := context.Background()
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	var res *result
	var metrics []metric
	var err error
	if traced {
		res, metrics, err = runTraced(ctx, w, seed, d, out)
	} else {
		res, metrics, err = runPlain(ctx, w, seed, d, out)
	}
	if err != nil {
		return err
	}
	for _, m := range append(w.report(res), metrics...) {
		fmt.Printf("%-28s %12.4f %s\n", m.Name, m.Value, m.Unit)
	}
	for _, msg := range res.errs {
		fmt.Fprintln(os.Stderr, "bench: failed op:", msg)
	}
	late := percentile(res.lateMs, 95)
	valid := late <= float64(maxLate)/float64(time.Millisecond)
	s := summary{
		Correct:   res.failed == 0 && valid,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   make(map[string]metricJSON, len(metrics)),
	}
	for _, m := range metrics {
		s.Metrics[m.Name] = metricJSON{Value: m.Value, Unit: m.Unit}
	}
	line, err := json.Marshal(s)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !valid {
		return fmt.Errorf("invalid run: generator fell %.1f ms behind schedule at p95 (limit %v)", late, maxLate)
	}
	if res.failed > 0 {
		return fmt.Errorf("%d of %d operations failed", res.failed, res.attempted)
	}
	return nil
}

// runPlain measures the end-to-end figures with no wrapper installed.
func runPlain(ctx context.Context, w *workload, seed uint64, d time.Duration, out string) (*result, []metric, error) {
	res := newResult()
	var setups []float64
	for i := 0; i < rounds; i++ {
		t0 := time.Now()
		e, err := setUp(ctx, w, seed, out, nil)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		res.merge(w.run(ctx, e, d/rounds))
		e.ring.close()
	}
	return res, endToEnd(res, percentile(setups, 50)), nil
}

// runTraced measures half the time untraced and half on a wrapped ring:
// the pair gives the tracing overhead, and the run takes about as long as
// an untraced one. The per-layer figures come from the wrapped half.
func runTraced(ctx context.Context, w *workload, seed uint64, d time.Duration, out string) (*result, []metric, error) {
	d = max((d / 2).Round(time.Second), time.Second)
	e, err := setUp(ctx, w, seed, out, nil)
	if err != nil {
		return nil, nil, err
	}
	plain := w.run(ctx, e, d)
	e.ring.close()

	rec := newRecorder()
	if e, err = setUp(ctx, w, seed, out, rec); err != nil {
		return nil, nil, err
	}
	before := snapshot(e)
	rec.mark()
	res := w.run(ctx, e, d)
	spans := rec.take()
	after := snapshot(e)
	e.ring.close()

	rep := analyze(spans, res, before.delta(after))
	rep.print(os.Stdout)
	if err := dumpSpans(filepath.Join(out, "spans-"+w.name+".tsv.gz"), spans); err != nil {
		fmt.Fprintln(os.Stderr, "bench: span dump:", err)
	}
	metrics := perLayer(rep, res, plain)
	res.attempted += plain.attempted
	res.failed += plain.failed
	res.errs = append(res.errs, plain.errs...)
	return res, metrics, nil
}

// setUp starts a ring in a fresh data directory and loads the workload's
// data set.
func setUp(ctx context.Context, w *workload, seed uint64, out string, rec *recorder) (*env, error) {
	dir, err := os.MkdirTemp(out, "data-")
	if err != nil {
		return nil, err
	}
	r, err := startRing(ctx, dir, w.policy, rec)
	if err != nil {
		_ = os.RemoveAll(dir)
		return nil, err
	}
	e := &env{seed: seed, ring: r, rec: rec, priv: publisherKey(seed)}
	if err := w.load(ctx, e); err != nil {
		r.close()
		return nil, fmt.Errorf("load %s: %w", w.name, err)
	}
	return e, nil
}

// endToEnd is the --trace 0 metric set. Every workload reports the same
// names so one bound table covers them all; "op" is the workload's user
// operation (write-durable: WriteFile+Sync; read-seq: ReadStream then
// ReadFile of one file; small-tasks: one read task, timed from its
// scheduled arrival). The p95 latencies are printed with each workload's
// own figures but left out here: on a 2-vCPU box with CPU steal their
// run-to-run spread exceeded any bound a regression check could use.
func endToEnd(res *result, setup float64) []metric {
	return []metric{
		{"setup_s", setup, "s"},
		{"op_p50_ms", percentile(latencies(res.main), 50), "ms"},
		{"op_MBps", sampleMBps(res.main), "MB/s"},
	}
}
