package main

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"
)

func TestTailQuantileLeavesTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{5, 0.5},     // too few for any tail: the median
		{40, 0.75},   // rank 30, 10 beyond
		{99, 0.75},   // p90 would be rank 90 with 9 beyond
		{100, 0.9},   // rank 90, 10 beyond
		{199, 0.9},   // p95 would be rank 190 with 9 beyond
		{200, 0.95},  // rank 190, 10 beyond
		{1000, 0.99}, // rank 990, 10 beyond; p99.5 leaves 5
		{2000, 0.995},
		{10000, 0.999},
	}
	for _, c := range cases {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1) // 1..100
	}
	for q, want := range map[float64]float64{0.5: 50, 0.9: 90, 0.99: 99, 0.999: 100, 0.001: 1} {
		if got := percentile(s, q); got != want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", q, got, want)
		}
	}
	d := summarize([]float64{5, 1, 4, 2, 3})
	if d.P50 != 3 || d.Tail != 3 || d.TailQ != 0.5 || d.N != 5 || d.Mean != 3 {
		t.Errorf("summarize(1..5) = %+v", d)
	}
}

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	parent := interval{0, 100}
	// Two hedged attempts overlapping on [20,30), one later child, and one
	// that runs past the parent's end (clipped to [90,100)).
	kids := []interval{{10, 30}, {20, 50}, {60, 70}, {90, 120}}
	// Covered: [10,50) + [60,70) + [90,100) = 40 + 10 + 10 = 60.
	if got := selfTime(parent, kids); got != 40 {
		t.Errorf("selfTime = %d, want 40", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("selfTime without children = %d, want 100", got)
	}
	if got := unionWithin([]interval{{0, 10}, {10, 20}, {5, 15}}, 0, 100); got != 20 {
		t.Errorf("touching intervals union = %d, want 20", got)
	}
}

func TestUnattributedFracReconciles(t *testing.T) {
	// Root A [0,100) is covered by two overlapping attempts [10,40) and
	// [30,60): 50 covered, 50 unattributed. Root B [100,200) is fully
	// covered by one child. Unattributed = 50 / 200.
	roots := []interval{{0, 100}, {100, 200}}
	kids := [][]interval{{{10, 40}, {30, 60}}, {{100, 200}}}
	if got := unattributedFrac(roots, kids); got != 0.25 {
		t.Errorf("unattributedFrac = %g, want 0.25", got)
	}
	// The same through spans: the proxy span is A's child, the attempts
	// are the proxy span's children and do not count at the root.
	spans := []spanRec{
		{ID: 1, Name: "client", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "proxy", Start: 10, End: 90},
		{ID: 3, Parent: 2, Name: "proxy.attempt", Start: 20, End: 60},
		{ID: 4, Parent: 2, Name: "proxy.attempt", Start: 40, End: 80},
	}
	if got := rootUnattributed(spans, map[string]bool{"client": true}); got != 0.2 {
		t.Errorf("rootUnattributed = %g, want 0.2", got)
	}
	by := analyze(spans)
	// proxy: 80 long, attempts cover [20,80) = 60, self 20.
	if p := by["proxy"]; p.N != 1 || p.SelfMs != 20/1e6 || p.MeanMs != 80/1e6 {
		t.Errorf("proxy layer = %+v", p)
	}
}

func TestDueTimeLatencyChargesGeneratorLag(t *testing.T) {
	ms := time.Millisecond
	// Due at 10ms, the generator only got to it at 25ms, it took 5ms.
	o := opTiming{Due: 10 * ms, Start: 25 * ms, End: 30 * ms}
	if o.Latency() != 20*ms || o.Lag() != 15*ms {
		t.Errorf("latency %v lag %v, want 20ms and 15ms", o.Latency(), o.Lag())
	}
	early := opTiming{Due: 10 * ms, Start: 9 * ms, End: 12 * ms}
	if early.Lag() != 0 || early.Latency() != 2*ms {
		t.Errorf("early op: latency %v lag %v", early.Latency(), early.Lag())
	}
	got := latenciesMs([]opTiming{o, early, {Failed: true}, {Skipped: true}})
	if len(got) != 2 || got[0] != 20 || got[1] != 2 {
		t.Errorf("latenciesMs = %v, want [20 2]", got)
	}
}

func TestOpenLoopSerializesKeys(t *testing.T) {
	var mu sync.Mutex
	var order []int
	var ops []*openOp
	for i := 0; i < 6; i++ {
		i := i
		// All due at once: the key chain, not the due time, orders them.
		ops = append(ops, &openOp{key: 7, run: func(context.Context) error {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			time.Sleep(time.Millisecond)
			return nil
		}})
	}
	runNominal(context.Background(), func(float64, time.Duration, time.Duration) []*openOp { return ops }, 0, time.Millisecond)
	for i, v := range order {
		if v != i {
			t.Fatalf("keyed ops ran in order %v", order)
		}
	}
	for i, o := range ops {
		if !o.done || o.t.Skipped || o.t.End < o.t.Start {
			t.Fatalf("op %d: timing %+v", i, o.t)
		}
	}
	if math.IsNaN(median(nil)) == false {
		t.Errorf("median of nothing should be NaN")
	}
}
