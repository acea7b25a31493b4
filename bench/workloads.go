package main

import (
	"bytes"
	"context"
	"crypto/ed25519"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"github.com/defragdht/d2/internal/fs"
	"github.com/defragdht/d2/internal/store/disk"
)

const volumeName = "bench"

// Offered load of small-tasks, in arrivals per second. On a 2-CPU x86
// box, two workers kept up with about 100/s: at 120/s the read-task p95
// rose from 22 ms (25/s) to 139 ms. 40/s leaves that headroom, so
// queueing stays transient, and still yields several hundred tasks a run.
const taskRate = 40

// maxLate is how far behind its schedule the small-tasks generator may
// fall (at p95) before the run is invalid: past it, arrivals were no
// longer issued when they were due.
const maxLate = 20 * time.Millisecond

// workload is one named traffic mix. load builds the data set on a fresh
// ring (part of set-up); run drives timed operations for d; report turns
// the samples of a whole run into the workload's own end-to-end figures.
type workload struct {
	name   string
	policy disk.FsyncPolicy
	load   func(ctx context.Context, e *env) error
	run    func(ctx context.Context, e *env, d time.Duration) *result
	report func(r *result) []metric
}

var workloads = map[string]*workload{
	"write-durable": {name: "write-durable", policy: disk.FsyncAlways, load: loadWrite, run: runWrite, report: reportWrite},
	// No timed read waits on the WAL, so the engines sync on a timer.
	"read-seq":    {name: "read-seq", policy: disk.FsyncInterval, load: loadRead, run: runRead, report: reportRead},
	"small-tasks": {name: "small-tasks", policy: disk.FsyncAlways, load: loadTasks, run: runTasks, report: reportTasks},
}

// env is one workload's state on one ring.
type env struct {
	seed  uint64
	ring  *ring
	rec   *recorder
	priv  ed25519.PrivateKey
	files fileSet
	w     *fs.Volume // the single writer
	r     *fs.Volume // read-seq's long-lived reader

	vmu       sync.Mutex
	started   []int // newest version a writer began, per file
	committed []int // newest version whose Sync returned, per file
	expect    [][]byte
}

func (e *env) pub() ed25519.PublicKey { return e.priv.Public().(ed25519.PublicKey) }

func (e *env) reader(ctx context.Context) (*fs.Volume, error) {
	return fs.Open(ctx, e.ring.svc, volumeName, e.pub(), nil, fs.Options{})
}

// result is what a timed run measured.
type result struct {
	attempted, failed int
	ops               int      // timed workload ops (not read-back checks)
	main              []sample // the workload's main op
	series            map[string][]sample
	stalls, wasted    int // stream pipeline, read-seq
	lateMs, queueMs   []float64
	errs              []string
}

func newResult() *result { return &result{series: map[string][]sample{}} }

// merge appends another round's result.
func (r *result) merge(o *result) {
	r.attempted += o.attempted
	r.failed += o.failed
	r.ops += o.ops
	r.stalls += o.stalls
	r.wasted += o.wasted
	r.lateMs = append(r.lateMs, o.lateMs...)
	r.queueMs = append(r.queueMs, o.queueMs...)
	r.errs = append(r.errs, o.errs...)
	r.main = append(r.main, o.main...)
	for k, xs := range o.series {
		r.series[k] = append(r.series[k], xs...)
	}
}

func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// loadFiles creates the volume and writes version 0 of every file,
// syncing per directory batch so pending writes stay bounded.
func loadFiles(ctx context.Context, e *env, dirs []string) error {
	var err error
	e.w, err = fs.Create(ctx, e.ring.svc, volumeName, e.priv, fs.Options{})
	if err != nil {
		return err
	}
	for _, d := range dirs {
		if err := e.w.Mkdir(ctx, d); err != nil {
			return err
		}
	}
	e.started = make([]int, len(e.files.Paths))
	e.committed = make([]int, len(e.files.Paths))
	pending := 0
	for i, p := range e.files.Paths {
		if err := e.w.WriteFile(ctx, p, content(e.seed, i, 0, e.files.Sizes[i])); err != nil {
			return fmt.Errorf("load %s: %w", p, err)
		}
		pending += e.files.Sizes[i]
		if pending >= 4*mb || i == len(e.files.Paths)-1 {
			if err := e.w.Sync(ctx); err != nil {
				return fmt.Errorf("load sync: %w", err)
			}
			pending = 0
		}
	}
	return nil
}

// --- write-durable: closed loop, one writer, WriteFile+Sync ---

func loadWrite(ctx context.Context, e *env) error {
	e.files = writeSet(e.seed)
	return loadFiles(ctx, e, []string{"/w"})
}

func runWrite(ctx context.Context, e *env, d time.Duration) *result {
	res := newResult()
	ops := newWriteOps(e.seed, len(e.files.Paths))
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		f := ops.next()
		ver := e.committed[f] + 1
		data := content(e.seed, f, ver, e.files.Sizes[f])
		res.ops++
		octx, sp := e.rec.op(ctx, "write")
		t0 := time.Now()
		err := e.w.WriteFile(octx, e.files.Paths[f], data)
		if err == nil {
			err = e.w.Sync(octx)
		}
		lat := time.Since(t0)
		e.rec.endOp(sp, int64(len(data)), err)
		res.attempted++
		if err != nil {
			res.fail("write %s: %v", e.files.Paths[f], err)
			continue
		}
		e.committed[f] = ver
		res.main = append(res.main, sample{ms: ms(lat), bytes: int64(len(data))})
	}
	// Every file read back through a fresh read-only handle must hold the
	// last acknowledged version.
	rd, err := e.reader(ctx)
	if err != nil {
		res.attempted++
		res.fail("readback open: %v", err)
	} else {
		for f, p := range e.files.Paths {
			res.attempted++
			got, err := rd.ReadFile(ctx, p)
			if err != nil {
				res.fail("readback %s: %v", p, err)
			} else if !bytes.Equal(got, content(e.seed, f, e.committed[f], e.files.Sizes[f])) {
				res.fail("readback %s: bytes differ from version %d", p, e.committed[f])
			}
		}
	}
	return res
}

func reportWrite(r *result) []metric {
	return []metric{
		{"write_MBps", sampleMBps(r.main), "MB/s"},
		{"write_p50_ms", percentile(latencies(r.main), 50), "ms"},
		{"write_p95_ms", percentile(latencies(r.main), 95), "ms"},
	}
}

// --- read-seq: closed loop, one reader, ReadStream then ReadFile ---

func loadRead(ctx context.Context, e *env) error {
	e.files = readSet(e.seed)
	if err := loadFiles(ctx, e, []string{"/r"}); err != nil {
		return err
	}
	e.expect = make([][]byte, len(e.files.Paths))
	for i, sz := range e.files.Sizes {
		e.expect[i] = content(e.seed, i, 0, sz)
	}
	var err error
	e.r, err = e.reader(ctx)
	return err
}

func runRead(ctx context.Context, e *env, d time.Duration) *result {
	res := newResult()
	order := readOrder(e.seed, len(e.files.Paths))
	buf := make([]byte, 256*kb)
	deadline := time.Now().Add(d)
	for i := 0; time.Now().Before(deadline); i++ {
		f := order[i%len(order)]
		p, want := e.files.Paths[f], e.expect[f]
		res.attempted++
		res.ops++

		// Stream first: it reads around the volume's read cache without
		// filling it, so both paths fetch from the ring. ReadFile first
		// would leave the file cached and the stream would measure only
		// cache hits.
		octx, sp := e.rec.op(ctx, "stream")
		t1 := time.Now()
		n, ttfb, st, err := streamCompare(octx, e.r, p, want, buf)
		stt := time.Since(t1)
		e.rec.endOp(sp, n, err)
		if err != nil {
			res.fail("stream %s: %v", p, err)
			continue
		}

		octx, sp = e.rec.op(ctx, "readfile")
		t0 := time.Now()
		got, err := e.r.ReadFile(octx, p)
		rt := time.Since(t0)
		e.rec.endOp(sp, int64(len(got)), err)
		if err != nil {
			res.fail("readfile %s: %v", p, err)
			continue
		}
		if !bytes.Equal(got, want) {
			res.fail("readfile %s: bytes differ", p)
			continue
		}
		res.series["readfile"] = append(res.series["readfile"], sample{ms: ms(rt), bytes: int64(len(got))})
		res.series["stream"] = append(res.series["stream"], sample{ms: ms(stt), bytes: n})
		res.series["ttfb"] = append(res.series["ttfb"], sample{ms: ms(ttfb)})
		res.stalls += st.Stalls
		res.wasted += st.WastedBlocks
		res.main = append(res.main, sample{ms: ms(rt + stt), bytes: int64(len(got)) + n})
	}
	return res
}

func reportRead(r *result) []metric {
	return []metric{
		{"read_MBps", sampleMBps(r.series["readfile"]), "MB/s"},
		{"stream_MBps", sampleMBps(r.series["stream"]), "MB/s"},
		{"stream_ttfb_p50_ms", percentile(latencies(r.series["ttfb"]), 50), "ms"},
	}
}

// streamCompare reads path to EOF through ReadStream, comparing each
// chunk with want as it arrives. ttfb runs from the ReadStream call to the
// first byte.
func streamCompare(ctx context.Context, v *fs.Volume, path string, want, buf []byte) (int64, time.Duration, fs.StreamStats, error) {
	t0 := time.Now()
	rc, err := v.ReadStream(ctx, path)
	if err != nil {
		return 0, 0, fs.StreamStats{}, err
	}
	var n int64
	var ttfb time.Duration
	for {
		k, rerr := rc.Read(buf)
		if k > 0 {
			if n == 0 {
				ttfb = time.Since(t0)
			}
			if n+int64(k) > int64(len(want)) || !bytes.Equal(buf[:k], want[n:n+int64(k)]) {
				_ = rc.Close()
				return n, ttfb, fs.StreamStats{}, fmt.Errorf("bytes differ at offset %d", n)
			}
			n += int64(k)
		}
		if errors.Is(rerr, io.EOF) {
			break
		}
		if rerr != nil {
			_ = rc.Close()
			return n, ttfb, fs.StreamStats{}, rerr
		}
	}
	var st fs.StreamStats
	if ss, ok := rc.(fs.StatStream); ok {
		st = ss.Stats()
	}
	if err := rc.Close(); err != nil {
		return n, ttfb, st, err
	}
	if n != int64(len(want)) {
		return n, ttfb, st, fmt.Errorf("stream ended at %d of %d bytes", n, len(want))
	}
	return n, ttfb, st, nil
}

// --- small-tasks: open loop, Poisson arrivals, 2 workers ---

func loadTasks(ctx context.Context, e *env) error {
	e.files = taskSet(e.seed)
	dirs := make([]string, taskDirs)
	for i := range dirs {
		dirs[i] = taskDir(i)
	}
	return loadFiles(ctx, e, dirs)
}

// arrival is a scheduled task with the time the generator released it.
type arrival struct {
	task
	due, sent time.Time
}

func runTasks(ctx context.Context, e *env, d time.Duration) *result {
	res := newResult()
	var mu sync.Mutex
	var writer sync.Mutex // the volume has a single writer

	// Arrivals never block the generator: queueing shows up as latency
	// counted from the scheduled time, not as a late schedule. The buffer
	// holds more arrivals than a run can schedule.
	jobs := make(chan arrival, 1<<16)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for a := range jobs {
				queued := time.Since(a.due)
				var n int64
				var end time.Time
				var err error
				if a.Update {
					n, end, err = e.update(ctx, &writer, a.Index)
				} else {
					n, end, err = e.readTask(ctx, a.Index)
				}
				lat := end.Sub(a.due)
				mu.Lock()
				res.attempted++
				res.ops++
				res.queueMs = append(res.queueMs, ms(queued))
				res.lateMs = append(res.lateMs, ms(a.sent.Sub(a.due)))
				switch {
				case err != nil:
					res.fail("%v", err)
				case a.Update:
					res.series["update"] = append(res.series["update"], sample{ms: ms(lat), bytes: n})
				default:
					res.main = append(res.main, sample{ms: ms(lat), bytes: n})
				}
				mu.Unlock()
			}
		}()
	}
	sched := newTaskOps(e.seed, taskRate)
	start := time.Now()
	for {
		t := sched.next()
		if t.At >= d {
			break
		}
		due := start.Add(t.At)
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		jobs <- arrival{task: t, due: due, sent: time.Now()}
	}
	close(jobs)
	wg.Wait()
	return res
}

func reportTasks(r *result) []metric {
	return []metric{
		{"task_p50_ms", percentile(latencies(r.main), 50), "ms"},
		{"task_p95_ms", percentile(latencies(r.main), 95), "ms"},
		{"update_p50_ms", percentile(latencies(r.series["update"]), 50), "ms"},
		{"update_p95_ms", percentile(latencies(r.series["update"]), 95), "ms"},
	}
}

// update rewrites one small file with its next version and syncs it,
// returning the bytes written and when the Sync returned.
func (e *env) update(ctx context.Context, writer *sync.Mutex, f int) (int64, time.Time, error) {
	writer.Lock()
	defer writer.Unlock()
	e.vmu.Lock()
	e.started[f]++
	ver := e.started[f]
	e.vmu.Unlock()
	data := content(e.seed, f, ver, e.files.Sizes[f])
	octx, sp := e.rec.op(ctx, "update")
	err := e.w.WriteFile(octx, e.files.Paths[f], data)
	if err == nil {
		err = e.w.Sync(octx)
	}
	end := time.Now()
	e.rec.endOp(sp, int64(len(data)), err)
	if err != nil {
		return 0, end, fmt.Errorf("update %s: %w", e.files.Paths[f], err)
	}
	e.vmu.Lock()
	e.committed[f] = ver
	e.vmu.Unlock()
	return int64(len(data)), end, nil
}

// readTask is the paper's access group: a fresh read-only handle, one
// directory listing, then Stat and ReadFile on every file in it. A file
// may hold any version from the one committed when the task began to the
// newest one a concurrent update had started by the time it ended. It
// returns the bytes read and when the access group finished; checking
// the bytes comes after and is not timed.
func (e *env) readTask(ctx context.Context, dir int) (int64, time.Time, error) {
	first := dir * taskFiles
	lo := make([]int, taskFiles)
	e.vmu.Lock()
	copy(lo, e.committed[first:first+taskFiles])
	e.vmu.Unlock()

	octx, sp := e.rec.op(ctx, "task")
	n, stats, datas, err := e.accessGroup(octx, taskDir(dir))
	end := time.Now()
	e.rec.endOp(sp, n, err)
	if err != nil {
		return 0, end, err
	}

	e.vmu.Lock()
	hi := append([]int(nil), e.started[first:first+taskFiles]...)
	e.vmu.Unlock()
	if len(stats) != taskFiles {
		return 0, end, fmt.Errorf("readdir %s: %d entries, want %d", taskDir(dir), len(stats), taskFiles)
	}
	for i, st := range stats {
		f := first + i
		if want := fmt.Sprintf("f%02d", i); st.Name != want {
			return 0, end, fmt.Errorf("readdir %s: entry %q, want %q", taskDir(dir), st.Name, want)
		}
		if st.Size != int64(e.files.Sizes[f]) || st.IsDir {
			return 0, end, fmt.Errorf("stat %s: size %d dir %v", e.files.Paths[f], st.Size, st.IsDir)
		}
		ok := false
		for v := lo[i]; v <= hi[i] && !ok; v++ {
			ok = bytes.Equal(datas[i], content(e.seed, f, v, e.files.Sizes[f]))
		}
		if !ok {
			return 0, end, fmt.Errorf("read %s: bytes match no version in [%d,%d]", e.files.Paths[f], lo[i], hi[i])
		}
	}
	return n, end, nil
}

// accessGroup lists dir through a fresh read-only handle, then calls Stat
// and ReadFile on every entry of the listing, in name order.
func (e *env) accessGroup(ctx context.Context, dir string) (int64, []fs.FileInfo, [][]byte, error) {
	v, err := e.reader(ctx)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("open: %w", err)
	}
	infos, err := v.ReadDir(ctx, dir)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("readdir %s: %w", dir, err)
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	stats := make([]fs.FileInfo, len(infos))
	datas := make([][]byte, len(infos))
	var n int64
	for i, fi := range infos {
		p := dir + "/" + fi.Name
		if stats[i], err = v.Stat(ctx, p); err != nil {
			return 0, nil, nil, fmt.Errorf("stat %s: %w", p, err)
		}
		if datas[i], err = v.ReadFile(ctx, p); err != nil {
			return 0, nil, nil, fmt.Errorf("read %s: %w", p, err)
		}
		n += int64(len(datas[i]))
	}
	return n, stats, datas, nil
}
