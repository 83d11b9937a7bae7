package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/kv"
	"repro/internal/obs"
	"repro/internal/tensorgen"
)

// kv-stream: sessions arrive as a Poisson process; each session runs on a
// fixed cadence through the proxy on /v1/kv/{session}: a prefill PUT, then
// decode-step PUTs of 1–4 rows with a GET of the recent window every
// kvReadEvery steps, a full-prefix GET at the end, and a DELETE. Half of
// the sessions start from one of kvSharedPrefills prompts, so their prefix
// chunks alias. Idle parked sessions keep the tier occupied as a serving
// cache would be. BENCHMARK.json does not gate it; every traced run probes
// it for the kv layers.
//
// The serve KV budget is below what the parked and live sessions hold, so
// the tier evicts in every phase. Eviction is a designed outcome, not a
// failure: a read may come back narrowed (206) or empty (416), and a
// session drained of every chunk while its tail is empty is dropped, after
// which its next append finds it empty (409) and its reads 404. The client
// counts each of these as a session miss; after a dropped session's 409 it
// re-sends the session's rows from 0 (as a server would recompute a lost
// prefix), and after a budget refusal (507) it gives the session up.
const (
	kvDim            = 64
	kvSteps          = 96
	kvReadEvery      = 4
	kvWindowRows     = 48
	kvCadence        = 25 * time.Millisecond
	kvSharedPrefills = 3
	kvParked         = 24
	kvParkRows       = 512
	kvPutRows        = 32        // rows per parking or re-sending PUT: one flush group
	kvBudget         = 128 << 10 // bytes per replica
	kvOpsPerSession  = 1 + kvSteps + kvSteps/kvReadEvery + 2
	kvRate           = 200.0 // op/s (sessions/s × kvOpsPerSession)
)

// kvSession is one generated session: its prefill and decode-step rows.
// The rows are dropped once the session is deleted and regenerated from
// idx for verification, so a run holds only its live sessions' rows.
type kvSession struct {
	idx     int64
	name    string
	prefill []float32
	steps   [][]float32
	rows    []float32 // all rows in append order
	// lost is set once the tier refused the session's rows (507); its
	// remaining appends and reads are skipped. Only the session's own
	// operations, which run one at a time, touch it.
	lost bool
	// gets collects the session's successful reads for verification.
	mu   sync.Mutex
	gets []kvGet
}

// kvGet is a read whose window and tail rows checked out when it arrived;
// its committed rows are kept as a digest, checked against the reference
// decode once the run is over.
type kvGet struct {
	from, end int // committed rows [from, end) of the reply
	sum       [sha256.Size]byte
}

type kvInst struct {
	e       *env
	st      *stack
	shared  [][]float32
	nextSes atomic.Int64
	misses  atomic.Int64 // session misses: dropped, narrowed-away or refused sessions
}

func setupKV(e *env) (instance, error) {
	st, err := startStack(kvBudget, e.tr)
	if err != nil {
		return nil, err
	}
	in := &kvInst{e: e, st: st}
	for j := 0; j < kvSharedPrefills; j++ {
		rng := rngFor(e.seed, int64(2000+j))
		in.shared = append(in.shared, tensorgen.Activations(rng, 40+8*j+rng.Intn(8), kvDim))
	}
	if err := in.park(); err != nil {
		st.close()
		return nil, err
	}
	return in, nil
}

// park fills the tier with idle sessions (conversations nobody resumes in
// the run), kvParkRows rows each, appended kvPutRows rows per PUT. The
// budget cannot hold them all, so the tier evicts the least recently used
// parked sessions' chunks as parking goes on (never those of the sessions
// being parked, which were just used); a session the tier refuses (507) is
// left unfinished.
func (in *kvInst) park() error {
	var next atomic.Int64
	errs := make(chan error, loadWorkers)
	for w := 0; w < loadWorkers; w++ {
		go func() {
			for {
				p := next.Add(1) - 1
				if p >= kvParked {
					errs <- nil
					return
				}
				rows := tensorgen.Activations(rngFor(in.e.seed, 3000+p), kvParkRows, kvDim)
				if _, err := in.sendRows(context.Background(), fmt.Sprintf("park%d", p), rows, 0, kvParkRows, nil); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	var first error
	for w := 0; w < loadWorkers; w++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (in *kvInst) close() { in.st.close() }

// kvConfig is the session table configuration serve builds by default
// (QP 12, CABAC, 32-row flush groups), with the given budget.
func kvConfig(budget int64) kv.Config {
	return kv.Config{BudgetBytes: budget, TTL: -1, Metrics: obs.NewRegistry()}
}

// newSession generates session idx of the run.
func (in *kvInst) newSession(idx int64) *kvSession {
	rng := rngFor(in.e.seed, 100000+idx)
	s := &kvSession{idx: idx, name: fmt.Sprintf("s%d", idx)}
	if rng.Intn(2) == 0 {
		s.prefill = in.shared[rng.Intn(len(in.shared))]
	} else {
		s.prefill = tensorgen.Activations(rng, 32+rng.Intn(32), kvDim)
	}
	s.rows = append(s.rows, s.prefill...)
	ends := make([]int, kvSteps)
	for k := range ends {
		s.rows = append(s.rows, tensorgen.Activations(rng, 1+rng.Intn(4), kvDim)...)
		ends[k] = len(s.rows)
	}
	// The steps alias the session's rows, so each session holds its rows
	// once.
	start := len(s.prefill)
	for _, end := range ends {
		s.steps = append(s.steps, s.rows[start:end])
		start = end
	}
	return s
}

// gen returns a genFunc for sessions drawn from rng: sessions arrive at
// rate ÷ kvOpsPerSession per second over the window, and each contributes
// its fixed-cadence operations. Generated sessions are appended to
// *sessions for verification.
func (in *kvInst) gen(rng *rand.Rand, t *tally, sessions *[]*kvSession) genFunc {
	var reqs int64
	return func(rate float64, from, win time.Duration) []*openOp {
		n := int(math.Round(rate / kvOpsPerSession * win.Seconds()))
		var ops []*openOp
		for _, at := range arrivals(rng, n, from, win) {
			s := in.newSession(in.nextSes.Add(1))
			*sessions = append(*sessions, s)
			key := int(s.idx)
			add := func(due time.Duration, name string, f func(ctx context.Context, sp *span) error) {
				reqs++
				req := reqs
				ops = append(ops, &openOp{due: due, key: key, run: func(ctx context.Context) error {
					sp := in.e.tr.begin(name, 0, req)
					err := f(ctx, sp)
					sp.end()
					t.record(err)
					return err
				}})
			}
			// Operations read the session's rows when they run rather than
			// capturing them, so deleting the session frees them.
			total := 0
			appendRows := func(due time.Duration, n int) {
				at, want := total, total+n
				add(due, "client.kv_write", func(ctx context.Context, sp *span) error {
					return in.put(ctx, s, at, want, sp)
				})
				total = want
			}
			get := func(due time.Duration, from int) {
				length := total
				add(due, "client.kv_read", func(ctx context.Context, sp *span) error {
					return in.get(ctx, s, from, length, sp)
				})
			}
			appendRows(at, len(s.prefill)/kvDim)
			for i, rows := range s.steps {
				due := at + time.Duration(i+1)*kvCadence
				appendRows(due, len(rows)/kvDim)
				if (i+1)%kvReadEvery == 0 {
					get(due, max(0, total-kvWindowRows))
				}
			}
			end := at + time.Duration(kvSteps+1)*kvCadence
			get(end, 0)
			add(end, "client.kv_delete", func(ctx context.Context, sp *span) error {
				rep, err := in.st.do(ctx, http.MethodDelete, "/v1/kv/"+s.name, nil, sp)
				if err == nil && rep.status == http.StatusNotFound {
					in.misses.Add(1) // dropped by eviction since its last operation
				} else if err == nil {
					err = statusErr("kv delete", rep, http.StatusNoContent)
				}
				s.prefill, s.steps, s.rows = nil, nil, nil
				return err
			})
		}
		return ops
	}
}

// verifyAll checks every session's reads and records the verdicts.
func (in *kvInst) verifyAll(sessions []*kvSession, t *tally) {
	for _, s := range sessions {
		for _, err := range in.verify(s) {
			t.record(err)
		}
	}
}

// sendRows appends rows [from, to) of a session in PUTs of at most
// kvPutRows rows, the first at offset from. It stops at the first budget
// refusal (507) and reports it as refused; any other answer but 200 with
// the expected total is an error.
func (in *kvInst) sendRows(ctx context.Context, name string, rows []float32, from, to int, sp *span) (refused bool, err error) {
	for at := from; at < to; at += kvPutRows {
		end := min(at+kvPutRows, to)
		path := fmt.Sprintf("/v1/kv/%s?dim=%d&at=%d", name, kvDim, at)
		rep, err := in.st.do(ctx, http.MethodPut, path, f32bytes(rows[at*kvDim:end*kvDim]), sp)
		if err != nil {
			return false, err
		}
		if rep.status == http.StatusInsufficientStorage {
			return true, nil
		}
		if err := checkAck(name, rep, end); err != nil {
			return false, err
		}
	}
	return false, nil
}

// checkAck checks a 200 append answer acknowledging want rows in all.
func checkAck(name string, rep reply, want int) error {
	if err := statusErr("kv put", rep, http.StatusOK); err != nil {
		return err
	}
	var ack struct{ Total int }
	if err := json.Unmarshal(rep.body, &ack); err != nil || ack.Total != want {
		return checkf("kv put %s: acknowledged total %d, want %d (%v)", name, ack.Total, want, err)
	}
	return nil
}

// put appends the session's rows [at, want). A 409 means the tier dropped
// the session after eviction drained it: the rows are re-sent from 0, and
// the re-send's first PUT at offset 0 succeeds only if the session really
// came back empty. A 507 means the tier could not fit the rows: the session
// is given up.
func (in *kvInst) put(ctx context.Context, s *kvSession, at, want int, sp *span) error {
	if s.lost {
		return nil
	}
	path := fmt.Sprintf("/v1/kv/%s?dim=%d&at=%d", s.name, kvDim, at)
	rep, err := in.st.do(ctx, http.MethodPut, path, f32bytes(s.rows[at*kvDim:want*kvDim]), sp)
	if err != nil {
		return err
	}
	from := at
	switch rep.status {
	case http.StatusConflict:
		in.misses.Add(1)
		from = 0
	case http.StatusInsufficientStorage:
		in.misses.Add(1)
		s.lost = true
		return nil
	default:
		return checkAck(s.name, rep, want)
	}
	refused, err := in.sendRows(ctx, s.name, s.rows, from, want, sp)
	if refused {
		s.lost = true
	}
	return err
}

// get reads [from, total) and keeps the reply for verification once the
// window has finished. A dropped session (404) or a window evicted
// entirely (416) is a session miss.
func (in *kvInst) get(ctx context.Context, s *kvSession, from, total int, sp *span) error {
	if s.lost {
		return nil
	}
	rep, err := in.st.do(ctx, http.MethodGet, fmt.Sprintf("/v1/kv/%s?range=%d-", s.name, from), nil, sp)
	if err != nil {
		return err
	}
	if rep.status == http.StatusNotFound || rep.status == http.StatusRequestedRangeNotSatisfiable {
		in.misses.Add(1)
		return nil
	}
	if err := statusErr("kv get", rep, http.StatusOK, http.StatusPartialContent); err != nil {
		return err
	}
	g, err := checkKVWindow(s, rep, from, total)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.gets = append(s.gets, g)
	s.mu.Unlock()
	return nil
}

// checkKVWindow checks a read of [t0, total) as it arrives: the window
// headers agree with the request, the status and the body, and the raw tail
// rows are bit-exact. The committed rows are returned as a digest.
func checkKVWindow(s *kvSession, rep reply, t0, total int) (kvGet, error) {
	h := func(k string) int {
		v, _ := strconv.Atoi(rep.header.Get("X-Llm265-Kv-" + k))
		return v
	}
	from, to, held, committed, evicted := h("From"), h("To"), h("Total"), h("Committed"), h("Evicted")
	switch {
	case held != total || to != total:
		return kvGet{}, checkf("kv get %s: window to %d of %d, session holds %d", s.name, to, held, total)
	case from != max(t0, evicted):
		return kvGet{}, checkf("kv get %s: window from %d, asked %d with %d evicted", s.name, from, t0, evicted)
	case (rep.status == http.StatusPartialContent) != (from > t0):
		return kvGet{}, checkf("kv get %s: status %d for window from %d asked %d", s.name, rep.status, from, t0)
	case len(rep.body) != 4*kvDim*(to-from):
		return kvGet{}, checkf("kv get %s: %d body bytes for rows [%d,%d)", s.name, len(rep.body), from, to)
	}
	end := min(max(committed, from), to)
	tail := rep.body[4*kvDim*(end-from):]
	if !bytes.Equal(tail, f32bytes(s.rows[end*kvDim:to*kvDim])) {
		return kvGet{}, checkf("kv get %s: tail rows [%d,%d) differ from the rows sent", s.name, end, to)
	}
	return kvGet{from: from, end: end, sum: sha256.Sum256(rep.body[:4*kvDim*(end-from)])}, nil
}

// verify checks the committed rows of every read of a session against an
// in-process reference decode of the session's rows.
func (in *kvInst) verify(s *kvSession) []error {
	if len(s.gets) == 0 {
		return nil
	}
	tab := kv.New(kvConfig(0))
	if _, err := tab.Append(context.Background(), "ref", kvDim, 0, in.newSession(s.idx).rows); err != nil {
		return []error{err}
	}
	ref, err := tab.Read(context.Background(), "ref", 0, -1)
	if err != nil {
		return []error{err}
	}
	want := f32bytes(ref.Vals)
	var errs []error
	for _, g := range s.gets {
		if sha256.Sum256(want[4*kvDim*g.from:4*kvDim*g.end]) != g.sum {
			errs = append(errs, checkf("kv get %s: committed rows [%d,%d) differ from the reference decode", s.name, g.from, g.end))
		} else {
			errs = append(errs, nil)
		}
	}
	return errs
}

func (in *kvInst) phase(ctx context.Context, dur time.Duration, traced bool) (phaseOut, error) {
	var t tally
	rng := rand.New(rand.NewSource(in.e.seed + 1))
	before := in.st.snap()
	c0 := map[string]int64{}
	kvCounters := []string{"kv.append.chunks_aliased", "kv.append.chunks_encoded", "kv.evict.chunks",
		"kv.reject.budget", "kv.read.partial", "kv.read.requests"}
	for _, n := range kvCounters {
		c0[n] = in.st.counter(n)
	}
	var peak int64
	smp := startSampler(5*time.Millisecond, func() { peak = max(peak, in.st.gaugeSum("kv.bytes.resident")) })
	var sessions []*kvSession
	misses := in.misses.Load()
	ops := runNominal(ctx, in.gen(rng, &t, &sessions), kvRate, dur)
	smp.stop()
	in.verifyAll(sessions, &t)
	ts := timings(ops)
	out := newPhaseOut(&t, latenciesMs(ts), "client.kv_write", "client.kv_read")
	if !traced {
		return out, nil
	}
	d := func(n string) float64 { return float64(in.st.counter(n) - c0[n]) }
	out.layer["loadgen.lag_tail_ms"] = summarize(lagsMs(ts)).Tail
	stackLayers(out.layer, in.e.tr.snapshot(), in.st, before, in.st.snap())
	if a, e := d("kv.append.chunks_aliased"), d("kv.append.chunks_encoded"); a+e > 0 {
		out.layer["kv.alias_frac"] = a / (a + e)
	}
	out.layer["kv.evicted_chunks"] = d("kv.evict.chunks")
	out.layer["kv.budget_rejects"] = d("kv.reject.budget")
	out.layer["kv.session_misses"] = float64(in.misses.Load() - misses)
	out.layer["kv.resident_peak_mb"] = float64(peak) / 1e6
	if n := d("kv.read.requests"); n > 0 {
		out.layer["kv.partial_read_frac"] = d("kv.read.partial") / n
	}
	appendMs, readMs, err := in.replayKV(sessions)
	if err != nil {
		return out, err
	}
	out.layer["kv.append_ms"], out.layer["kv.read_ms"] = appendMs, readMs
	return out, nil
}

// replayKV replays the phase's sessions one after another — each with the
// same appends and window reads — on a private table with one replica's
// budget, timing Table.Append and Table.Read alone.
func (in *kvInst) replayKV(sessions []*kvSession) (appendMs, readMs float64, err error) {
	tab := kv.New(kvConfig(kvBudget))
	var app, rd []float64
	ctx := context.Background()
	for _, live := range sessions {
		s := in.newSession(live.idx)
		total := 0
		for k, rows := range append([][]float32{s.prefill}, s.steps...) {
			t0 := time.Now()
			if _, err := tab.Append(ctx, s.name, kvDim, total, rows); err != nil {
				return 0, 0, fmt.Errorf("kv replay append: %w", err)
			}
			app = append(app, float64(time.Since(t0))/1e6)
			total += len(rows) / kvDim
			if k > 0 && k%kvReadEvery == 0 {
				t1 := time.Now()
				_, err := tab.Read(ctx, s.name, max(0, total-kvWindowRows), -1)
				if err != nil && !isRangeGone(err) {
					return 0, 0, fmt.Errorf("kv replay read: %w", err)
				}
				rd = append(rd, float64(time.Since(t1))/1e6)
			}
		}
		tab.Delete(s.name)
	}
	return mean(app), mean(rd), nil
}

func isRangeGone(err error) bool {
	return err != nil && (errors.Is(err, kv.ErrRangeUnavailable) || errors.Is(err, kv.ErrNotFound))
}

func (in *kvInst) samples() []sampleStack {
	var out []sampleStack
	for _, p := range in.shared {
		out = append(out, sampleStack{stack: tensorStack(len(p)/kvDim, kvDim, p), qp: 12})
	}
	return out
}
