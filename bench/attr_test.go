package main

import (
	"math"
	"sync"
	"testing"
)

// A GetMany fan-out: the op [0,100) calls one getmany [10,90) whose three
// owner calls overlap: [10,50), [20,60) and [70,90). Each call's handler
// runs inside it and does one store read.
func fanout() []span {
	return []span{
		{ID: 1, Kind: kindOp, Name: "readfile", Start: 0, End: 100},
		{ID: 2, Parent: 1, Kind: kindSvc, Name: "getmany", Start: 10, End: 90},
		{ID: 3, Parent: 2, Kind: kindCall, Name: "multi_get", Node: clientEndpoint, Start: 10, End: 50},
		{ID: 4, Parent: 2, Kind: kindCall, Name: "multi_get", Node: clientEndpoint, Start: 20, End: 60},
		{ID: 5, Parent: 2, Kind: kindCall, Name: "multi_get", Node: clientEndpoint, Start: 70, End: 90},
		{ID: 6, Parent: 3, Kind: kindHandle, Name: "multi_get", Start: 15, End: 45},
		{ID: 7, Parent: 4, Kind: kindHandle, Name: "multi_get", Start: 25, End: 55},
		{ID: 8, Parent: 5, Kind: kindHandle, Name: "multi_get", Start: 72, End: 88},
		{ID: 9, Parent: 6, Kind: kindStore, Name: "getbatch", Start: 20, End: 40},
		{ID: 10, Parent: 7, Kind: kindStore, Name: "getbatch", Start: 30, End: 50},
		{ID: 11, Parent: 8, Kind: kindStore, Name: "getbatch", Start: 75, End: 85},
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	tr := newSpanTree(fanout())
	cases := map[int]int64{
		0: 100 - 80, // op minus the getmany
		// getmany [10,90) minus [10,60)∪[70,90) = 80 - 70, not 80 - 100
		1: 10,
		2: 40 - 30, // call minus its handler
		5: 30 - 20, // handler minus its store read
		8: 20,      // store read, a leaf
	}
	for i, want := range cases {
		if got := tr.self(i); got != want {
			t.Errorf("span %d (%s): self %d, want %d", tr.spans[i].ID, tr.spans[i].Name, got, want)
		}
	}
}

func TestAttributionSumsToOpTime(t *testing.T) {
	tr := newSpanTree(fanout())
	acc, lost := map[string]float64{}, map[string]float64{}
	tr.attribute(0, 1, acc, lost)
	var sum float64
	for _, v := range acc {
		sum += v
	}
	if math.Abs(sum-100) > 1e-9 || len(lost) != 0 {
		t.Fatalf("layers sum to %v (lost %v), want the op's 100", sum, lost)
	}
	if acc["fs"] != 20 || acc["node.client"] != 10 {
		t.Errorf("fs %v, node.client %v: want 20 and 10", acc["fs"], acc["node.client"])
	}
	// The calls cover 70 of their summed 100, so each child's subtree is
	// scaled by 0.7: transport self 10+10+4, node 10+10+6, store 20+20+10.
	want := map[string]float64{"transport": 0.7 * 24, "node": 0.7 * 26, "store.disk": 0.7 * 50}
	for l, v := range want {
		if math.Abs(acc[l]-v) > 1e-9 {
			t.Errorf("%s: %v, want %v", l, acc[l], v)
		}
	}
}

func TestUnclaimedCallIsUnattributed(t *testing.T) {
	spans := fanout()[:5] // no handler claimed any call
	tr := newSpanTree(spans)
	acc, lost := map[string]float64{}, map[string]float64{}
	tr.attribute(0, 1, acc, lost)
	if got := lost["node.client→transport→node (multi_get)"]; math.Abs(got-70) > 1e-9 {
		t.Errorf("lost %v, want 70 at the client's multi_get boundary", lost)
	}
	if acc["transport"] != 0 {
		t.Errorf("transport got %v for calls nothing explains", acc["transport"])
	}
}

func TestUnionLen(t *testing.T) {
	ivs := []interval{{5, 20}, {0, 10}, {30, 40}, {35, 50}, {60, 70}}
	if got := unionLen(ivs, 0, 65); got != 20+20+5 {
		t.Errorf("union %d, want 45", got)
	}
	if got := unionLen(nil, 0, 10); got != 0 {
		t.Errorf("empty union %d", got)
	}
}

func TestGoroutineIDs(t *testing.T) {
	ids := make([]uint64, 8)
	var wg sync.WaitGroup
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ids[i] = goid()
		}(i)
	}
	wg.Wait()
	seen := map[uint64]bool{goid(): true}
	for _, id := range ids {
		if id == 0 || seen[id] {
			t.Fatalf("goroutine ids %v not distinct and non-zero", ids)
		}
		seen[id] = true
	}
}
