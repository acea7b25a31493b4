package main

import (
	"math"
	"sort"
	"time"
)

// metric is one named, unit-carrying result.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// mbps is bytes over time in MiB per second (0 when no time passed).
func mbps(b int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(b) / mb / d.Seconds()
}

// percentile returns the p-th percentile of xs by linear interpolation
// between closest ranks (0 for an empty sample).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	i := int(math.Floor(pos))
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// ratio is a/b, or 0 when b is 0 (a per-op figure on a workload that has
// no such op).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// sample is one timed operation: its latency and the user bytes it moved.
type sample struct {
	ms    float64
	bytes int64
}

// latencies returns the samples' latencies in milliseconds.
func latencies(xs []sample) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x.ms
	}
	return out
}

// sampleMBps is the samples' user bytes per second of operation time.
func sampleMBps(xs []sample) float64 {
	var b int64
	var t float64
	for _, x := range xs {
		b += x.bytes
		t += x.ms
	}
	return mbps(b, time.Duration(t*float64(time.Millisecond)))
}
