package main

import (
	"crypto/ed25519"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"time"
)

// The generator turns the workload seed into everything the program sees:
// paths, file sizes, file contents, and the operation sequence. Nothing
// else feeds the program, so one seed always drives the same inputs.

// Random streams drawn from one seed; each purpose gets its own so adding
// draws to one never shifts another.
const (
	streamKey uint64 = iota + 1
	streamSizes
	streamOps
)

func newRand(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// content returns the bytes of version ver of file f: a PCG stream keyed
// by (seed, f, ver), so any reader can derive what a write stored.
func content(seed uint64, f, ver, size int) []byte {
	p := rand.NewPCG(seed^0x636f6e74656e7421, uint64(f)<<32|uint64(ver))
	out := make([]byte, (size+7)&^7)
	for i := 0; i < len(out); i += 8 {
		binary.LittleEndian.PutUint64(out[i:], p.Uint64())
	}
	return out[:size]
}

// publisherKey derives the volume's signing key from the seed.
func publisherKey(seed uint64) ed25519.PrivateKey {
	var s [ed25519.SeedSize]byte
	r := newRand(seed, streamKey)
	for i := 0; i < len(s); i += 8 {
		binary.LittleEndian.PutUint64(s[i:], r.Uint64())
	}
	return ed25519.NewKeyFromSeed(s[:])
}

// logSizes draws n sizes log-uniformly from [lo, hi], stratified: size i
// comes from the i-th of n equal quantile bins, then the set is shuffled.
// Stratifying keeps the set's size mix, and so its per-op cost, nearly the
// same across seeds while every size and position still comes from the
// seed.
func logSizes(r *rand.Rand, n, lo, hi int) []int {
	out := make([]int, n)
	ratio := math.Log(float64(hi) / float64(lo))
	for i := range out {
		u := (float64(i) + r.Float64()) / float64(n)
		out[i] = int(float64(lo) * math.Exp(u*ratio))
	}
	r.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// countFor returns how many log-uniform sizes in [lo, hi] are expected to
// total target bytes.
func countFor(target, lo, hi int) int {
	mean := float64(hi-lo) / math.Log(float64(hi)/float64(lo))
	return int(math.Round(float64(target) / mean))
}

// fileSet is a workload's files: path and size per file index.
type fileSet struct {
	Paths []string
	Sizes []int
}

func (s fileSet) total() int {
	n := 0
	for _, sz := range s.Sizes {
		n += sz
	}
	return n
}

const (
	kb = 1 << 10
	mb = 1 << 20
)

// writeSet: ~16 MB of 64 KB–1 MB files in one directory.
func writeSet(seed uint64) fileSet {
	r := newRand(seed, streamSizes)
	sizes := logSizes(r, countFor(16*mb, 64*kb, mb), 64*kb, mb)
	return fileSet{Paths: flatPaths("/w", len(sizes)), Sizes: sizes}
}

// readSet: 256 KB–16 MB files totalling at least twice the volume's
// 32 MiB default read cache, so whole-file reads that cycle through the
// set always miss it.
func readSet(seed uint64) fileSet {
	r := newRand(seed, streamSizes)
	s := fileSet{Sizes: logSizes(r, countFor(72*mb, 256*kb, 16*mb), 256*kb, 16*mb)}
	for s.total() < 64*mb {
		s.Sizes = append(s.Sizes, 256*kb+r.IntN(16*mb-256*kb))
	}
	s.Paths = flatPaths("/r", len(s.Sizes))
	return s
}

// Small-file tree shape: taskDirs directories of taskFiles files. In
// every directory, taskTail files take sizes up to 64 KB and the rest are
// inline-sized (64 B–4 KB). Giving each directory the same mix keeps one
// access group's cost, and so the task latency distribution, nearly the
// same across seeds.
const (
	taskDirs  = 16
	taskFiles = 32
	taskTail  = 5
)

func taskSet(seed uint64) fileSet {
	r := newRand(seed, streamSizes)
	var s fileSet
	for d := 0; d < taskDirs; d++ {
		sizes := append(logSizes(r, taskFiles-taskTail, 64, 4*kb), logSizes(r, taskTail, 4*kb+1, 64*kb)...)
		r.Shuffle(len(sizes), func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
		for i, sz := range sizes {
			s.Paths = append(s.Paths, fmt.Sprintf("%s/f%02d", taskDir(d), i))
			s.Sizes = append(s.Sizes, sz)
		}
	}
	return s
}

func taskDir(d int) string { return fmt.Sprintf("/d%02d", d) }

func flatPaths(dir string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s/f%03d", dir, i)
	}
	return out
}

// writeOps yields the write-durable sequence: the file index of each
// overwrite.
type writeOps struct {
	r *rand.Rand
	n int
}

func newWriteOps(seed uint64, files int) *writeOps {
	return &writeOps{r: newRand(seed, streamOps), n: files}
}

func (w *writeOps) next() int { return w.r.IntN(w.n) }

// readOrder is the read-seq visiting order: one seeded permutation,
// repeated, so between two reads of one file every other file is read.
func readOrder(seed uint64, files int) []int {
	return newRand(seed, streamOps).Perm(files)
}

// task is one small-tasks arrival.
type task struct {
	At     time.Duration // scheduled arrival, from the start of the run
	Update bool
	Index  int // directory for a read task, file for an update
}

// taskOps yields seeded Poisson arrivals at rate per second: 80% read
// tasks over a uniform directory, 20% updates of a uniform file.
type taskOps struct {
	r    *rand.Rand
	rate float64
	at   time.Duration
}

func newTaskOps(seed uint64, rate float64) *taskOps {
	return &taskOps{r: newRand(seed, streamOps), rate: rate}
}

func (t *taskOps) next() task {
	t.at += time.Duration(t.r.ExpFloat64() / t.rate * float64(time.Second))
	if t.r.IntN(5) == 0 {
		return task{At: t.at, Update: true, Index: t.r.IntN(taskDirs * taskFiles)}
	}
	return task{At: t.at, Index: t.r.IntN(taskDirs)}
}
