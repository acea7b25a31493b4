package main

import (
	"bytes"
	"reflect"
	"testing"
)

// inputs is everything the generator hands the program for one seed.
type inputs struct {
	Write, Read, Tasks fileSet
	WriteOps           []int
	ReadOrder          []int
	TaskOps            []task
	Key                []byte
	Content            [][]byte
}

func generate(seed uint64) inputs {
	in := inputs{
		Write: writeSet(seed),
		Read:  readSet(seed),
		Tasks: taskSet(seed),
		Key:   publisherKey(seed),
	}
	w := newWriteOps(seed, len(in.Write.Paths))
	t := newTaskOps(seed, taskRate)
	for i := 0; i < 200; i++ {
		in.WriteOps = append(in.WriteOps, w.next())
		in.TaskOps = append(in.TaskOps, t.next())
	}
	in.ReadOrder = readOrder(seed, len(in.Read.Paths))
	for f := 0; f < 4; f++ {
		in.Content = append(in.Content, content(seed, f, f, in.Write.Sizes[f]))
	}
	return in
}

func TestGenerationDeterministic(t *testing.T) {
	a, b := generate(7), generate(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("one seed generated two different input sets")
	}
	c := generate(8)
	if reflect.DeepEqual(a.Write.Sizes, c.Write.Sizes) || reflect.DeepEqual(a.Read.Sizes, c.Read.Sizes) ||
		reflect.DeepEqual(a.Tasks.Sizes, c.Tasks.Sizes) {
		t.Error("another seed generated the same file sizes")
	}
	if reflect.DeepEqual(a.WriteOps, c.WriteOps) || reflect.DeepEqual(a.TaskOps, c.TaskOps) ||
		reflect.DeepEqual(a.ReadOrder, c.ReadOrder) {
		t.Error("another seed generated the same op sequence")
	}
	if bytes.Equal(a.Key, c.Key) || bytes.Equal(a.Content[0][:64], content(8, 0, 0, 64)) {
		t.Error("another seed generated the same key or content")
	}
}

func TestFileSetShapes(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		w, r, s := writeSet(seed), readSet(seed), taskSet(seed)
		if tot := w.total(); tot < 14*mb || tot > 18*mb {
			t.Errorf("seed %d: write set totals %d bytes, want ~16 MiB", seed, tot)
		}
		for _, sz := range w.Sizes {
			if sz < 64*kb || sz > mb {
				t.Errorf("seed %d: write file of %d bytes outside 64 KiB–1 MiB", seed, sz)
			}
		}
		if tot := r.total(); tot < 64*mb {
			t.Errorf("seed %d: read set totals %d bytes, below twice the 32 MiB read cache", seed, tot)
		}
		if len(s.Paths) != taskDirs*taskFiles {
			t.Errorf("seed %d: %d task files, want %d", seed, len(s.Paths), taskDirs*taskFiles)
		}
		inline := 0
		for _, sz := range s.Sizes {
			if sz <= 4*kb {
				inline++
			}
			if sz < 1 || sz > 64*kb {
				t.Errorf("seed %d: task file of %d bytes outside 1 B–64 KiB", seed, sz)
			}
		}
		if inline < len(s.Sizes)*8/10 {
			t.Errorf("seed %d: only %d of %d task files fit inline", seed, inline, len(s.Sizes))
		}
	}
}

func TestTaskMix(t *testing.T) {
	g := newTaskOps(3, taskRate)
	var updates int
	var last task
	const n = 5000
	for i := 0; i < n; i++ {
		last = g.next()
		if last.Update {
			updates++
		}
	}
	if frac := float64(updates) / n; frac < 0.18 || frac > 0.22 {
		t.Errorf("update share %.3f, want ~0.20", frac)
	}
	if rate := n / last.At.Seconds(); rate < taskRate*0.95 || rate > taskRate*1.05 {
		t.Errorf("arrival rate %.1f/s, want ~%d/s", rate, taskRate)
	}
}
