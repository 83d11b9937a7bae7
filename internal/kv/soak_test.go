package kv_test

// The soak harness (external test package: it drives the kv tier the way
// production does, through the serve HTTP handler) runs thousands of
// concurrent sessions under a budget tight enough to force continuous
// eviction, with expiry bursts and delete/restart churn interleaved, and
// holds three invariants at every step:
//
//  1. Zero corrupt reads: every byte of every 200/206 body is bit-exact
//     against an independently computed reference (one-shot codec decode
//     for committed rows, raw floats for the tail).
//  2. Resident bytes never exceed the budget — sampled by every worker
//     after every operation and by a dedicated sampler goroutine.
//  3. Every 206/416/404 is justified by the eviction log: a 206's From is
//     sandwiched between the session's logged eviction boundary before and
//     after the request, and a vanished session requires a logged full
//     eviction (budget or expiry).
//
// `make kv-test` sets KV_SOAK=1 for the full ≥2,000-session run; without it
// (plain `go test ./...`) a scaled-down version keeps the suite fast.

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/frame"
	"repro/internal/kv"
	"repro/internal/obs"
	"repro/internal/quant"
	"repro/internal/serve"
)

// soakClock is a fake clock the whole table shares; the test advances it in
// bursts to trigger TTL expiry deterministically mid-churn.
type soakClock struct {
	base time.Time
	off  atomic.Int64
}

func (c *soakClock) now() time.Time          { return c.base.Add(time.Duration(c.off.Load())) }
func (c *soakClock) advance(d time.Duration) { c.off.Add(int64(d)) }

// soakLog mirrors the table's eviction stream per session: the highest
// partial-eviction boundary and whether a full eviction (budget or expiry)
// removed the session. Workers reset their session's entry when they
// deliberately restart it, so the log always describes the live incarnation.
type soakLog struct {
	mu   sync.Mutex
	to   map[string]int
	gone map[string]bool
}

func (l *soakLog) onEvict(session string, _, to int, full bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if full {
		l.gone[session] = true
		return
	}
	if to > l.to[session] {
		l.to[session] = to
	}
}

func (l *soakLog) snap(session string) (to int, gone bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.to[session], l.gone[session]
}

func (l *soakLog) reset(session string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.to, session)
	delete(l.gone, session)
}

// soakRows mirrors the deterministic per-absolute-row generator the unit
// tests use, so a session's content is a pure function of (seed, row).
func soakRows(seed int64, start, n, dim int) []float32 {
	out := make([]float32, n*dim)
	for r := 0; r < n; r++ {
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(start+r)))
		base := rng.Float32() * 8
		for c := 0; c < dim; c++ {
			out[r*dim+c] = base + rng.Float32()
		}
	}
	return out
}

// soakReference is the one-shot ground truth for a full session: per-row
// quantization of each complete flush group, a single encode, decode,
// dequantize. Per-plane reconstructions are invariant to chunk grouping
// (the property suite proves it), so any committed row the kv tier ever
// serves must equal this, whatever the append schedule or eviction history.
func soakReference(vals []float32, dim, f, qp int) ([]float32, error) {
	rows := len(vals) / dim
	groups := rows / f
	out := make([]float32, len(vals))
	copy(out[groups*f*dim:], vals[groups*f*dim:])
	if groups == 0 {
		return out, nil
	}
	planes := make([]*frame.Plane, groups)
	scales := make([]float32, groups*f)
	zeros := make([]float32, groups*f)
	for g := 0; g < groups; g++ {
		pix := make([]uint8, f*dim)
		for r := 0; r < f; r++ {
			abs := g*f + r
			q, sc, z := quant.ToUint8(vals[abs*dim : (abs+1)*dim])
			copy(pix[r*dim:], q)
			scales[abs], zeros[abs] = sc, z
		}
		planes[g] = &frame.Plane{W: dim, H: f, Pix: pix}
	}
	enc, _, err := codec.Encoder{Profile: codec.HEVC, Tools: codec.AllTools, Workers: 1, Container: codec.ContainerChecksummed}.Encode(context.Background(), planes, qp)
	if err != nil {
		return nil, err
	}
	dec, err := codec.Decoder{Workers: 1}.Decode(context.Background(), enc)
	if err != nil {
		return nil, err
	}
	for g, p := range dec {
		for r := 0; r < f; r++ {
			abs := g*f + r
			copy(out[abs*dim:], quant.FromUint8(p.Row(r), scales[abs], zeros[abs]))
		}
	}
	return out, nil
}

func soakBody(vals []float32) []byte {
	out := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(v))
	}
	return out
}

type putOutcome int

const (
	putOK putOutcome = iota
	putGone
	putFail
)

func TestKVSoak(t *testing.T) {
	sessions, maxRows := 200, 24
	if os.Getenv("KV_SOAK") != "" {
		sessions, maxRows = 2000, 32
	}
	const (
		dim       = 16
		flushRows = 8
		qp        = 12
		ttl       = time.Hour
	)
	// ~30% below the fleet's cold steady-state demand (measured ~183B per
	// committed chunk, parked sessions carry maxRows/flushRows chunks and
	// no tail). The budget must comfortably exceed the *active* working
	// set — the sessions currently appending plus in-flight reservations —
	// so that eviction lands on cold parked sessions rather than thrashing
	// the sessions still growing; parked owners then find chunks missing
	// when they wake, which is where the 206s come from.
	budget := int64(sessions) * int64(183*(maxRows/flushRows)*7/10)

	reg := obs.NewRegistry()
	clock := &soakClock{base: time.Unix(1_700_000_000, 0)}
	evlog := &soakLog{to: make(map[string]int), gone: make(map[string]bool)}
	tab := kv.New(kv.Config{
		Shards:      64,
		BudgetBytes: budget,
		TTL:         ttl,
		FlushRows:   flushRows,
		QP:          qp,
		Workers:     1,
		Metrics:     reg,
		OnEvict:     evlog.onEvict,
		Now:         clock.now,
	})
	// Admission control is load-bearing here: each in-flight append holds a
	// worst-case budget reservation while it encodes, so thousands of
	// unthrottled concurrent appends would briefly reserve far more than
	// the budget and stampede the evictor. Bounding execution to a few
	// requests (everyone else blocks in the queue) keeps transient
	// reservations small — exactly what admission exists for.
	h := serve.New(serve.Config{MaxInflight: 8, MaxQueue: 4*sessions + 64, Workers: 1, KV: tab}).Handler()

	var (
		failures  atomic.Int64
		failMu    sync.Mutex
		failMsgs  []string
		firstDone atomic.Int64 // workers that completed ≥1 full incarnation
		aborted   atomic.Int64 // workers that bailed on a fatal failure
		allDone   atomic.Bool  // every worker completed its first incarnation
		stop      atomic.Bool
		reads200  atomic.Int64
		reads206  atomic.Int64
		reads416  atomic.Int64
		restarts  atomic.Int64
	)
	fail := func(format string, args ...any) {
		failures.Add(1)
		failMu.Lock()
		if len(failMsgs) < 20 {
			failMsgs = append(failMsgs, fmt.Sprintf(format, args...))
		}
		failMu.Unlock()
	}
	checkBudget := func() {
		if r := tab.Resident(); r > tab.Budget() {
			fail("budget violated: resident %d > budget %d", r, tab.Budget())
		}
	}

	startCh := make(chan struct{})
	prog := make([]atomic.Int64, sessions)
	var fillWg, wg sync.WaitGroup

	worker := func(id int) {
		defer wg.Done()
		counted := false
		defer func() {
			if !counted {
				aborted.Add(1)
			}
		}()
		name := fmt.Sprintf("s%04d", id)
		rng := rand.New(rand.NewSource(int64(id)*7919 + 1))
		raw := soakRows(int64(9000+id), 0, maxRows, dim)
		dec, err := soakReference(raw, dim, flushRows, qp)
		if err != nil {
			fail("session %s: reference: %v", name, err)
			fillWg.Done()
			<-startCh
			return
		}

		do := func(method, target string, body []byte) *httptest.ResponseRecorder {
			req := httptest.NewRequest(method, "http://soak.local"+target, bytes.NewReader(body))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			return rec
		}
		hdr := func(rec *httptest.ResponseRecorder, key string) int {
			v, err := strconv.Atoi(rec.Header().Get("X-Llm265-Kv-" + key))
			if err != nil {
				fail("session %s: bad %s header: %v", name, key, err)
				return -1
			}
			return v
		}

		put := func(at, k int) putOutcome {
			body := soakBody(raw[at*dim : (at+k)*dim])
			for attempt := 0; ; attempt++ {
				rec := do("PUT", fmt.Sprintf("/v1/kv/%s?dim=%d&at=%d", name, dim, at), body)
				checkBudget()
				switch rec.Code {
				case 200:
					return putOK
				case 507:
					// Budget reject under transient reservation pressure:
					// back off and retry — eviction frees space.
					if attempt > 500 {
						fail("session %s: append at=%d rejected %d times", name, at, attempt)
						return putFail
					}
					time.Sleep(time.Duration(1+attempt%4) * time.Millisecond)
				case 404, 409:
					// The session vanished under us (at-precondition broke or
					// lookup found nothing): legal only when the table logged
					// a full eviction of the live incarnation.
					if _, gone := evlog.snap(name); !gone {
						fail("session %s: append at=%d -> %d without a logged full eviction", name, at, rec.Code)
						return putFail
					}
					return putGone
				default:
					fail("session %s: append at=%d -> unexpected %d (%.120s)", name, at, rec.Code, rec.Body.String())
					return putFail
				}
			}
		}

		// read verifies a GET range=a-b (b ≤ rows appended so far) and
		// reports whether the session turned out to be fully gone.
		read := func(a, b int) (gone bool) {
			toBefore, _ := evlog.snap(name)
			rec := do("GET", fmt.Sprintf("/v1/kv/%s?range=%d-%d", name, a, b), nil)
			checkBudget()
			toAfter, goneAfter := evlog.snap(name)
			switch rec.Code {
			case 200, 206:
				from, to, committed := hdr(rec, "From"), hdr(rec, "To"), hdr(rec, "Committed")
				if from < 0 || to < 0 || committed < 0 {
					return false
				}
				if rec.Code == 200 {
					reads200.Add(1)
					if from != a || to != b {
						fail("session %s: 200 for [%d,%d) served [%d,%d)", name, a, b, from, to)
						return false
					}
				} else {
					reads206.Add(1)
					// A 206 means the range head was lost: From must be the
					// eviction boundary, sandwiched by the log around the
					// request (the log and the boundary advance under the
					// same lock, and only forward).
					if from <= a {
						fail("session %s: 206 for [%d,%d) but From=%d lost nothing", name, a, b, from)
						return false
					}
					if from < toBefore || from > toAfter {
						fail("session %s: 206 From=%d outside eviction log window [%d,%d]", name, from, toBefore, toAfter)
						return false
					}
				}
				body := rec.Body.Bytes()
				if len(body) != (to-from)*dim*4 {
					fail("session %s: [%d,%d) body %dB, want %dB", name, from, to, len(body), (to-from)*dim*4)
					return false
				}
				for r := from; r < to; r++ {
					src := dec
					if r >= committed {
						src = raw
					}
					for c := 0; c < dim; c++ {
						got := math.Float32frombits(binary.LittleEndian.Uint32(body[((r-from)*dim+c)*4:]))
						if got != src[r*dim+c] {
							fail("session %s: CORRUPT read row %d col %d: %g want %g (committed=%d)",
								name, r, c, got, src[r*dim+c], committed)
							return false
						}
					}
				}
				return false
			case 404:
				if !goneAfter {
					fail("session %s: read [%d,%d) -> 404 without a logged full eviction", name, a, b)
				}
				return true
			case 416:
				reads416.Add(1)
				ev := hdr(rec, "Evicted")
				if ev < b && !goneAfter {
					fail("session %s: 416 for [%d,%d) but only %d evicted", name, a, b, ev)
					return false
				}
				if (ev < toBefore || ev > toAfter) && !goneAfter {
					fail("session %s: 416 Evicted=%d outside eviction log window [%d,%d]", name, ev, toBefore, toAfter)
				}
				return false
			default:
				fail("session %s: read [%d,%d) -> unexpected %d (%.120s)", name, a, b, rec.Code, rec.Body.String())
				return false
			}
		}

		// Fill phase: two raw rows each, so ≥`sessions` sessions are
		// resident simultaneously at the barrier (asserted by the main
		// goroutine) before churn begins.
		out := put(0, 2)
		fillWg.Done()
		<-startCh
		if out != putOK {
			return
		}

		at := 2
		for !stop.Load() {
			prog[id].Store(int64(at))
			if at >= maxRows {
				if !counted {
					counted = true
					firstDone.Add(1)
				}
				// Park: go cold, waking only occasionally to read. A cold
				// session ages to the LRU tail and donates chunks to the
				// evictor; the owner then finds the prefix missing on wake
				// — that is where the 206s come from. Long sleeps while
				// the fleet converges keep parked sessions older (in LRU
				// terms) than any session still appending, so eviction
				// never thrashes the active working set; once every worker
				// has completed an incarnation, parked workers wake faster
				// and restart freely to keep delete/append churn running.
				opStart := time.Now()
				a := rng.Intn(maxRows)
				gone := read(a, a+1+rng.Intn(maxRows-a))
				opDur := time.Since(opStart)
				if gone || (allDone.Load() && rng.Intn(8) == 0) {
					if !gone {
						if rec := do("DELETE", "/v1/kv/"+name, nil); rec.Code != 204 && rec.Code != 404 {
							fail("session %s: delete -> %d", name, rec.Code)
							return
						}
					}
					evlog.reset(name)
					restarts.Add(1)
					at = 0
				}
				// Closed-loop pacing: sleep a multiple of the last op's
				// duration (which includes admission queue wait), so when
				// the fleet saturates the server the parked readers back
				// off instead of growing the queue without bound and
				// starving the sessions still appending. Until the fleet
				// converges the sleep cap must exceed any active worker's
				// queue wait: LRU age is refreshed by every touch, so
				// parked readers waking on a short cap would look fresher
				// than builders stuck in the admission queue, inverting
				// eviction onto the active working set (at 2,000 sessions
				// a 5s cap starved the last ~4% of builders indefinitely).
				mult, ceil := time.Duration(6), 5*time.Second
				if !allDone.Load() {
					mult, ceil = 40, 90*time.Second
				}
				sleep := min(max(mult*opDur, 30*time.Millisecond), ceil)
				time.Sleep(sleep + time.Duration(rng.Intn(20))*time.Millisecond)
				continue
			}
			k := 1 + rng.Intn(9)
			if at+k > maxRows {
				k = maxRows - at
			}
			switch put(at, k) {
			case putOK:
				at += k
			case putGone:
				evlog.reset(name)
				restarts.Add(1)
				at = 0
				continue
			case putFail:
				return
			}
			if at > 0 && rng.Intn(2) == 0 {
				a := rng.Intn(at)
				if read(a, a+1+rng.Intn(at-a)) {
					evlog.reset(name)
					restarts.Add(1)
					at = 0
				}
			}
		}
	}

	fillWg.Add(sessions)
	wg.Add(sessions)
	for i := 0; i < sessions; i++ {
		go worker(i)
	}
	fillWg.Wait()
	if n := tab.Sessions(); n < sessions {
		t.Fatalf("fill barrier: %d concurrent sessions, want >= %d", n, sessions)
	}
	t.Logf("fill: %d concurrent sessions resident=%dB budget=%dB", tab.Sessions(), tab.Resident(), budget)
	close(startCh)

	// Independent budget sampler: the invariant must hold at every instant,
	// not just at worker op boundaries.
	samplerStop := make(chan struct{})
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		for {
			select {
			case <-samplerStop:
				return
			default:
			}
			checkBudget()
			time.Sleep(200 * time.Microsecond)
		}
	}()

	// Churn until every worker has completed at least one full incarnation,
	// firing two TTL expiry bursts along the way (the second with a
	// concurrent Sweep) so expiry interleaves with append/read/evict.
	bursts := 0
	minPartials := int64(sessions) / 8
	deadline := time.Now().Add(time.Duration(4+sessions/250) * time.Minute)
	for {
		done := firstDone.Load() + aborted.Load()
		if done >= int64(sessions) {
			allDone.Store(true)
		}
		// Run until every worker completed an incarnation AND the parked
		// fleet has absorbed enough evictions to serve a quorum of 206s —
		// the eviction/read interleaving is the point of the soak.
		if allDone.Load() && reads206.Load() >= minPartials {
			break
		}
		if bursts == 0 && done >= int64(sessions/4) {
			clock.advance(2 * ttl)
			bursts++
		}
		if bursts == 1 && done >= int64(sessions/2) {
			clock.advance(2 * ttl)
			tab.Sweep()
			bursts++
		}
		if time.Now().After(deadline) {
			hist := map[int64]int{}
			for i := range prog {
				hist[prog[i].Load()]++
			}
			snap := reg.Snapshot().Counters
			fail("soak stalled: %d/%d workers completed an incarnation; at-histogram=%v resident=%d/%d rejects=%d evict chunks/sessions=%d/%d expired=%d",
				firstDone.Load(), sessions, hist, tab.Resident(), tab.Budget(),
				snap["kv.reject.budget"], snap["kv.evict.chunks"], snap["kv.evict.sessions"], snap["kv.expired"])
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	close(samplerStop)
	<-samplerDone

	// Final expiry: everything idles past the TTL; a sweep must remove all
	// sessions and the resident accounting must return exactly to zero —
	// any leak in blob refcounts or tail charges shows up here.
	clock.advance(2 * ttl)
	tab.Sweep()
	if n := tab.Sessions(); n != 0 {
		t.Errorf("after final sweep: %d sessions still live", n)
	}
	if r := tab.Resident(); r != 0 {
		t.Errorf("after final sweep: resident = %dB, want 0 (accounting leak)", r)
	}

	snap := reg.Snapshot().Counters
	if snap["kv.evict.chunks"] == 0 {
		t.Error("budget pressure never evicted a chunk — soak was not tight")
	}
	if snap["kv.expired"] == 0 {
		t.Error("TTL bursts never expired a session")
	}
	if reads206.Load() < minPartials {
		t.Errorf("only %d 206s served, want >= %d — eviction/read interleaving under-exercised", reads206.Load(), minPartials)
	}
	if n := failures.Load(); n != 0 {
		failMu.Lock()
		for _, m := range failMsgs {
			t.Error(m)
		}
		failMu.Unlock()
		t.Fatalf("%d invariant violations (first %d shown)", n, len(failMsgs))
	}
	t.Logf("soak: %d sessions, %d restarts, reads 200/206/416 = %d/%d/%d, evicted chunks=%d sessions=%d expired=%d",
		sessions, restarts.Load(), reads200.Load(), reads206.Load(), reads416.Load(),
		snap["kv.evict.chunks"], snap["kv.evict.sessions"], snap["kv.expired"])
}
