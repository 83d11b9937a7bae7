package main

import (
	"container/heap"
	"context"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// loadWorkers bounds the load generator's concurrency: at most this many
// connections or worker goroutines issue operations, one per CPU of the
// 2-CPU host the benchmark is sized for.
const loadWorkers = 2

// runBatch drives op over indexes 0..n-1 from loadWorkers clients in a
// closed loop: each client takes the next index when its previous operation
// returns. It returns the wall time of the whole batch.
func runBatch(ctx context.Context, n int, op func(ctx context.Context, k int)) time.Duration {
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < loadWorkers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int(next.Add(1) - 1); k < n && ctx.Err() == nil; k = int(next.Add(1) - 1) {
				op(ctx, k)
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// openOp is one scheduled operation of an open-loop phase.
type openOp struct {
	due time.Duration // offset from the loop's start
	// key serializes the operations of one session: operations sharing a
	// key >= 0 run one at a time, in the order they were added. -1 means
	// independent.
	key int
	run func(ctx context.Context) error

	// Written by the loop under its lock.
	t    opTiming
	done bool
	next *openOp // successor with the same key
}

// arrivals draws n arrival offsets uniformly over [from, from+window) and
// sorts them: a Poisson process conditioned on its count, so the offered
// load is exact while the spacing stays exponential.
func arrivals(rng *rand.Rand, n int, from, window time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = from + time.Duration(rng.Int63n(int64(window)))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// openLoop executes operations against the wall clock on loadWorkers
// goroutines, each started no earlier than its due time. Operations may be
// added while it runs.
type openLoop struct {
	ctx     context.Context
	start   time.Time
	mu      sync.Mutex
	cond    *sync.Cond
	ready   dueHeap
	tail    map[int]*openOp // last added operation per key
	pending int             // added but not yet finished or skipped
	closed  bool
	wake    chan struct{} // nudges a sleeping worker to re-check the heap
	wg      sync.WaitGroup
}

func startOpenLoop(ctx context.Context) *openLoop {
	l := &openLoop{ctx: ctx, start: time.Now(), tail: map[int]*openOp{}, wake: make(chan struct{}, loadWorkers)}
	l.cond = sync.NewCond(&l.mu)
	for w := 0; w < loadWorkers; w++ {
		l.wg.Add(1)
		go l.worker()
	}
	return l
}

// elapsed is the time since the loop started.
func (l *openLoop) elapsed() time.Duration { return time.Since(l.start) }

// add schedules ops. A keyed operation becomes ready when its predecessor
// with the same key finishes.
func (l *openLoop) add(ops []*openOp) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, o := range ops {
		l.pending++
		if o.key >= 0 {
			if p := l.tail[o.key]; p != nil && !p.done {
				p.next = o
				l.tail[o.key] = o
				continue
			}
			l.tail[o.key] = o
		}
		heap.Push(&l.ready, o)
	}
	l.notify()
}

// notify wakes idle and sleeping workers. Caller holds l.mu.
func (l *openLoop) notify() {
	l.cond.Broadcast()
	for i := 0; i < loadWorkers; i++ {
		select {
		case l.wake <- struct{}{}:
		default:
		}
	}
}

// wait declares that nothing more will be added and returns once every
// operation has finished or been skipped.
func (l *openLoop) wait() {
	l.mu.Lock()
	l.closed = true
	l.cond.Broadcast()
	l.mu.Unlock()
	l.wg.Wait()
}

func (l *openLoop) worker() {
	defer l.wg.Done()
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		for l.ready.Len() == 0 && !(l.closed && l.pending == 0) {
			l.cond.Wait()
		}
		if l.ready.Len() == 0 {
			return
		}
		o := heap.Pop(&l.ready).(*openOp)
		// Sleep until due, unlocked. An earlier operation becoming ready
		// (a session's next step, now overdue) or a stop cuts the sleep
		// short, so the generator itself never makes an operation late.
		for d := o.due - l.elapsed(); d > 0; d = o.due - l.elapsed() {
			l.mu.Unlock()
			timer.Reset(d)
			select {
			case <-timer.C:
			case <-l.wake:
				if !timer.Stop() {
					<-timer.C
				}
			}
			l.mu.Lock()
			if l.ready.Len() > 0 && l.ready[0].due < o.due {
				heap.Push(&l.ready, o)
				o = heap.Pop(&l.ready).(*openOp)
			}
		}
		now := l.elapsed()
		o.t = opTiming{Due: o.due, Start: now}
		if l.ctx.Err() != nil {
			o.t.End, o.t.Skipped = now, true
		} else {
			l.mu.Unlock()
			err := o.run(l.ctx)
			end := l.elapsed()
			l.mu.Lock()
			o.t.End, o.t.Failed = end, err != nil
		}
		o.done = true
		l.pending--
		if o.next != nil {
			heap.Push(&l.ready, o.next)
		}
		if l.tail[o.key] == o {
			delete(l.tail, o.key)
		}
		l.notify()
	}
}

// dueHeap orders operations by due time.
type dueHeap []*openOp

func (h dueHeap) Len() int           { return len(h) }
func (h dueHeap) Less(a, b int) bool { return h[a].due < h[b].due }
func (h dueHeap) Swap(a, b int)      { h[a], h[b] = h[b], h[a] }
func (h *dueHeap) Push(x any)        { *h = append(*h, x.(*openOp)) }
func (h *dueHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// genFunc generates the operations arriving at rate over [from, from+win).
type genFunc func(rate float64, from, win time.Duration) []*openOp

// runNominal runs the operations gen makes at rate over a window of length
// win, and returns them once every one has finished.
func runNominal(ctx context.Context, gen genFunc, rate float64, win time.Duration) []*openOp {
	l := startOpenLoop(ctx)
	ops := gen(rate, 0, win)
	l.add(ops)
	l.wait()
	return ops
}

// timings collects the timings of ops.
func timings(ops []*openOp) []opTiming {
	out := make([]opTiming, len(ops))
	for i, o := range ops {
		out[i] = o.t
	}
	return out
}

// latenciesMs lists due-time latencies of completed, successful operations.
func latenciesMs(ts []opTiming) []float64 {
	var out []float64
	for _, t := range ts {
		if !t.Failed && !t.Skipped {
			out = append(out, float64(t.Latency())/1e6)
		}
	}
	return out
}

// lagsMs lists generator lateness for started operations.
func lagsMs(ts []opTiming) []float64 {
	var out []float64
	for _, t := range ts {
		if !t.Skipped {
			out = append(out, float64(t.Lag())/1e6)
		}
	}
	return out
}

// sampler calls fn every period until stop.
type sampler struct {
	stopCh chan struct{}
	done   chan struct{}
}

func startSampler(period time.Duration, fn func()) *sampler {
	s := &sampler{stopCh: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tk := time.NewTicker(period)
		defer tk.Stop()
		for {
			fn()
			select {
			case <-s.stopCh:
				return
			case <-tk.C:
			}
		}
	}()
	return s
}

func (s *sampler) stop() {
	close(s.stopCh)
	<-s.done
}
