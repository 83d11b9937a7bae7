package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"sort"
	"time"

	"repro/internal/core"
)

// encode-weights: a closed loop of loadWorkers clients, each POSTing
// distinct weight stacks to /v1/encode through the proxy, in rounds. A
// round is one cycle of genWeights' request schedule — every shape, QP and
// backend once — sent largest first, so every round is the same work and no
// client is left with a large request at the end of it. A run is a whole
// number of rounds, and the rates reported are its values and requests over
// the summed round time: on a shared host CPU speed can swing by a quarter
// for seconds at a time, so every round counts alike rather than one median
// round standing for the run. Replies are verified between rounds, outside
// the timed part: the checking decodes neither compete with the encodes for
// the CPU nor pace the clients, and no more than one round's replies are
// held at a time.
type encodeInst struct {
	e     *env
	st    *stack
	refs  map[int64][]byte // in-process EncodeStack bytes of the calibration requests
	round int64            // next round; its requests are round*encRound + roundOrder
}

// encRound is the length of genWeights' schedule: request i's shape, QP and
// backend depend only on i mod encRound.
const encRound = 16

// roundOrder lists a round's request offsets largest first.
var roundOrder = func() []int64 {
	order := make([]int64, encRound)
	for k := range order {
		order[k] = int64(k)
	}
	sort.SliceStable(order, func(a, b int) bool {
		return weightShapeValues(order[a]) > weightShapeValues(order[b])
	})
	return order
}()

// roundValues is the tensor values one round encodes.
var roundValues = func() int {
	n := 0
	for k := int64(0); k < encRound; k++ {
		n += weightShapeValues(k)
	}
	return n
}()

func setupEncode(e *env) (instance, error) {
	st, err := startStack(0, e.tr)
	if err != nil {
		return nil, err
	}
	in := &encodeInst{e: e, st: st, refs: map[int64][]byte{}}
	for i := int64(0); i < calibCount; i++ {
		w := genWeights(e.seed, i)
		enc, err := w.opts().EncodeStack(w.stack, w.qp)
		if err != nil {
			st.close()
			return nil, fmt.Errorf("reference encode %d: %w", i, err)
		}
		in.refs[i] = enc.Marshal()
	}
	return in, nil
}

func (in *encodeInst) close() { in.st.close() }

// encodeReply is one answered encode request.
type encodeReply struct {
	i    int64
	body []byte
	send time.Duration // request latency
	lag  time.Duration // input generation before the send
}

// send posts request i through the proxy.
func (in *encodeInst) send(ctx context.Context, i int64) (encodeReply, error) {
	begin := time.Now()
	w := genWeights(in.e.seed, i)
	body := w.body()
	sp := in.e.tr.begin("client.encode", 0, i+1)
	t0 := time.Now()
	rep, err := in.st.do(ctx, http.MethodPost, w.query(), body, sp)
	sp.end()
	out := encodeReply{i: i, send: time.Since(t0), lag: t0.Sub(begin)}
	if err != nil {
		return out, err
	}
	out.body = rep.body
	return out, statusErr("encode", rep, http.StatusOK)
}

// verified is a reply that passed its checks.
type verified struct {
	values, bits int
	sq           float64
	decode       time.Duration
}

// verify decodes a reply in process and checks it against its source at
// its QP's MSE bound, and for the calibration requests byte for byte
// against the in-process encode.
func (in *encodeInst) verify(rep encodeReply) (verified, error) {
	var v verified
	if ref, ok := in.refs[rep.i]; ok && !bytes.Equal(rep.body, ref) {
		return v, checkf("encode %d: reply differs from in-process EncodeStack", rep.i)
	}
	w := genWeights(in.e.seed, rep.i)
	t0 := time.Now()
	enc, err := core.UnmarshalEncoded(rep.body)
	if err != nil {
		return v, checkf("encode %d: %v", rep.i, err)
	}
	dec, err := w.opts().DecodeStack(enc)
	v.decode = time.Since(t0)
	if err != nil {
		return v, checkf("encode %d: decode: %v", rep.i, err)
	}
	if v.sq, err = checkStack(enc, w.stack, dec); err != nil {
		return v, checkf("encode %d: %v", rep.i, err)
	}
	v.values, v.bits = w.values(), enc.SizeBits()
	return v, nil
}

// runRounds runs rounds back to back until dur has passed (at least one),
// verifies each round's replies once the round is over and passes every
// verified reply to each. Send and check failures go to t. It returns the
// rounds' wall times.
func (in *encodeInst) runRounds(ctx context.Context, dur time.Duration, t *tally, each func(encodeReply, verified)) []time.Duration {
	var walls []time.Duration
	start := time.Now()
	for len(walls) == 0 || time.Since(start) < dur {
		base := in.round * encRound
		in.round++
		replies := make([]encodeReply, encRound)
		errs := make([]error, encRound)
		walls = append(walls, runBatch(ctx, encRound, func(ctx context.Context, k int) {
			replies[k], errs[k] = in.send(ctx, base+roundOrder[k])
		}))
		for k, rep := range replies {
			if errs[k] != nil {
				t.record(errs[k])
				continue
			}
			v, err := in.verify(rep)
			t.record(err)
			if err == nil {
				each(rep, v)
			}
		}
	}
	return walls
}

func (in *encodeInst) measure(ctx context.Context, dur time.Duration, r *result) error {
	var t tally
	var writes, reads []float64
	var calibBits, calibVals, calibSq float64
	calibDone := 0
	walls := in.runRounds(ctx, dur, &t, func(rep encodeReply, v verified) {
		writes = append(writes, float64(rep.send)/1e6)
		reads = append(reads, float64(v.decode)/1e6)
		if rep.i < calibCount {
			calibBits += float64(v.bits)
			calibVals += float64(v.values)
			calibSq += v.sq
			calibDone++
		}
	})
	t.into(r)
	if calibDone != calibCount {
		return fmt.Errorf("only %d of %d calibration requests verified", calibDone, calibCount)
	}
	var wall float64
	for _, w := range walls {
		wall += w.Seconds()
	}
	n := float64(len(walls))
	r.set("throughput_mvals_s", n*float64(roundValues)/wall/1e6, "Mvalues/s")
	r.set("max_rps", n*encRound/wall, "req/s")
	r.setLatency("write", writes)
	r.setLatency("read", reads)
	r.set("bits_per_value", calibBits/calibVals, "bits")
	r.set("value_mse", calibSq/calibVals, "mse")
	r.note("rounds", float64(len(walls)))
	return nil
}

func (in *encodeInst) phase(ctx context.Context, dur time.Duration, traced bool) (phaseOut, error) {
	var t tally
	before := in.st.snap()
	var ops, lags []float64
	in.runRounds(ctx, dur, &t, func(rep encodeReply, _ verified) {
		ops = append(ops, float64(rep.send)/1e6)
		lags = append(lags, float64(rep.lag)/1e6)
	})
	after := in.st.snap()
	out := newPhaseOut(&t, ops, "client.encode")
	if traced {
		out.layer["loadgen.lag_tail_ms"] = summarize(lags).Tail
		stackLayers(out.layer, in.e.tr.snapshot(), in.st, before, after)
	}
	return out, nil
}

func (in *encodeInst) samples() []sampleStack {
	var out []sampleStack
	for j := int64(0); j < 4; j++ {
		w := genWeights(in.e.seed, calibCount+j)
		out = append(out, sampleStack{stack: w.stack, qp: w.qp, backend: w.backend})
	}
	return out
}
