package main

import (
	"math"
	"sort"
	"time"
)

// The benchmark's own arithmetic: percentiles from raw samples, open-loop
// due-time latency and span self time. Everything
// here is pure so stats_test.go can pin it with hand-computed cases.

// tailLadder lists the percentiles a tail may be reported at, highest first.
var tailLadder = []float64{0.999, 0.995, 0.99, 0.95, 0.9, 0.75, 0.5}

// minBeyond is how many samples must lie above a reported tail percentile.
const minBeyond = 10

// rankOf is the 1-based nearest rank of quantile q among n samples.
func rankOf(q float64, n int) int {
	k := int(math.Ceil(q*float64(n) - 1e-9))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// percentile returns the nearest-rank q-quantile of ascending samples.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rankOf(q, len(sorted))-1]
}

// tailQuantile picks the highest ladder percentile that leaves at least
// minBeyond of n samples above its rank; below that it falls back to the
// median.
func tailQuantile(n int) float64 {
	for _, q := range tailLadder {
		if n-rankOf(q, n) >= minBeyond {
			return q
		}
	}
	return 0.5
}

// dist summarizes one class of raw latency samples.
type dist struct {
	N      int       `json:"n"`
	P50    float64   `json:"p50"`
	TailQ  float64   `json:"tail_q"`
	Tail   float64   `json:"tail"`
	Mean   float64   `json:"mean"`
	Values []float64 `json:"-"` // sorted samples
}

// summarize sorts a copy of samples and reports median and tail.
func summarize(samples []float64) dist {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	d := dist{N: len(s), Values: s}
	if len(s) == 0 {
		d.P50, d.Tail, d.Mean = math.NaN(), math.NaN(), math.NaN()
		return d
	}
	d.P50 = percentile(s, 0.5)
	d.TailQ = tailQuantile(len(s))
	d.Tail = percentile(s, d.TailQ)
	var sum float64
	for _, v := range s {
		sum += v
	}
	d.Mean = sum / float64(len(s))
	return d
}

// median of unsorted values (NaN when empty).
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// opTiming is one open-loop operation: when it was due, when a worker
// started it and when it finished, as offsets from the phase start.
type opTiming struct {
	Due, Start, End time.Duration
	Failed          bool
	Skipped         bool // never started: the phase was cancelled
}

// Latency is measured from the due time, so a stalled generator charges the
// wait to every operation queued behind the stall.
func (o opTiming) Latency() time.Duration { return o.End - o.Due }

// Lag is how late the generator started the operation.
func (o opTiming) Lag() time.Duration {
	if o.Start < o.Due {
		return 0
	}
	return o.Start - o.Due
}

// interval is a half-open time range in nanoseconds.
type interval struct{ Lo, Hi int64 }

// unionWithin is the length of the union of ivs clipped to [lo, hi).
func unionWithin(ivs []interval, lo, hi int64) int64 {
	var c []interval
	for _, iv := range ivs {
		a, b := max(iv.Lo, lo), min(iv.Hi, hi)
		if b > a {
			c = append(c, interval{a, b})
		}
	}
	sort.Slice(c, func(i, j int) bool { return c[i].Lo < c[j].Lo })
	var total, curLo, curHi int64
	for i, iv := range c {
		if i == 0 || iv.Lo > curHi {
			total += curHi - curLo
			curLo, curHi = iv.Lo, iv.Hi
			continue
		}
		curHi = max(curHi, iv.Hi)
	}
	if len(c) > 0 {
		total += curHi - curLo
	}
	return total
}

// selfTime is a span's duration minus the part of it its children cover.
// Overlapping children (a hedged pair of attempts) are counted once.
func selfTime(parent interval, children []interval) int64 {
	return parent.Hi - parent.Lo - unionWithin(children, parent.Lo, parent.Hi)
}

// unattributedFrac is the share of the roots' summed duration that no child
// span covers: the end-to-end time the layer spans leave unexplained.
func unattributedFrac(roots []interval, children [][]interval) float64 {
	var self, total int64
	for i, r := range roots {
		self += selfTime(r, children[i])
		total += r.Hi - r.Lo
	}
	if total == 0 {
		return 0
	}
	return float64(self) / float64(total)
}
