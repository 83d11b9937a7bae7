package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/allreduce"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/tensorgen"
	"repro/internal/train"
)

// train-ring: train.RunDataParallelRing with two replicas and
// allreduce.TensorCodec(QP 28) with error feedback, on the
// `llm265 bench -train` model (data seed 7, init seed 99), repeated for the
// run. Loss and wire bits are deterministic: after trainSteps steps they
// must equal the llm265-qp28 row of BENCH_baseline.json, and the
// uncompressed reference run made at setup must equal its fp16 row.
const (
	trainSteps         = 60
	pinnedLoss         = 2.734631331752133
	pinnedWireBits     = 2946024
	pinnedFP16Loss     = 2.6226355070739937
	pinnedFP16WireBits = 18186240
)

type trainInst struct {
	e        *env
	calibMSE float64
	fp16Loss float64
}

// setupTrain runs the uncompressed reference training (the baseline the
// compressed loss is judged against) and the allreduce calibration.
func setupTrain(e *env) (instance, error) {
	in := &trainInst{e: e}
	res, err := trainRun(context.Background(), allreduce.Config{}, nil)
	if err != nil {
		return nil, err
	}
	in.fp16Loss = res.Curve[len(res.Curve)-1].Loss
	if in.fp16Loss != pinnedFP16Loss || res.WireBits != pinnedFP16WireBits {
		return nil, checkf("train-ring reference: loss %.17g and %d wire bits, pinned %.17g and %d",
			in.fp16Loss, res.WireBits, pinnedFP16Loss, pinnedFP16WireBits)
	}
	if in.calibMSE, err = allreduceCalibration(); err != nil {
		return nil, err
	}
	return in, nil
}

func (in *trainInst) close() {}

// trainRun trains the pinned model for trainSteps steps over rcfg.
func trainRun(ctx context.Context, rcfg allreduce.Config, onStep func(int)) (*train.RingDPResult, error) {
	m := nn.NewTransformer(rand.New(rand.NewSource(99)), trainCfg)
	corpus := data.NewCorpus(1, trainCfg.Vocab, 20000, 4000)
	dpc := train.DPConfig{Replicas: trainReplicas, Batch: trainBatch}
	return train.RunDataParallelRing(ctx, m, corpus, nn.NewAdam(3e-3), dpc, rcfg, trainSteps, 7, onStep)
}

// allreduceCalibration reduces a fixed pair of gradient buckets through a
// fresh compressed ring and reports the value MSE against the exact sum.
func allreduceCalibration() (float64, error) {
	rows, cols := bucketGeometry()
	ring, err := allreduce.New(allreduce.Config{Workers: trainReplicas, Rows: rows, Cols: cols,
		Codec: allreduce.TensorCodec(core.DefaultOptions(), trainQP)})
	if err != nil {
		return 0, err
	}
	in := make([][]float32, trainReplicas)
	out := make([][]float32, trainReplicas)
	exact := make([]float32, rows*cols)
	for w := range in {
		in[w] = tensorgen.Gradients(rngFor(0, int64(w)), rows*cols, 2)
		out[w] = make([]float32, rows*cols)
		for i, v := range in[w] {
			exact[i] += v
		}
	}
	if _, err := ring.Allreduce(context.Background(), in, out); err != nil {
		return 0, err
	}
	return sqErr(exact, out[0]) / float64(len(exact)), nil
}

// stepClock accumulates, per training step, the time the ring's workers
// spend in segment encode and decode calls, and holds the current step's
// span so codec spans can name it as parent.
type stepClock struct {
	enc, dec atomic.Int64
	step     atomic.Int64
}

// timedCodec wraps a worker's segment codec, timing each call (and, traced,
// recording it as a span under the current training step).
type timedCodec struct {
	inner allreduce.SegmentCodec
	clock *stepClock
	tr    *tracer
}

func (c *timedCodec) Wire() byte { return c.inner.Wire() }

func (c *timedCodec) Encode(ctx context.Context, vals []float32, rows, cols int) ([]byte, []float32, int64, error) {
	sp := c.tr.begin("allreduce.encode", c.clock.step.Load(), 0)
	t0 := time.Now()
	p, recon, bits, err := c.inner.Encode(ctx, vals, rows, cols)
	c.clock.enc.Add(int64(time.Since(t0)))
	sp.end()
	return p, recon, bits, err
}

func (c *timedCodec) Decode(ctx context.Context, payload []byte, rows, cols int, dst []float32) error {
	sp := c.tr.begin("allreduce.decode", c.clock.step.Load(), 0)
	t0 := time.Now()
	err := c.inner.Decode(ctx, payload, rows, cols, dst)
	c.clock.dec.Add(int64(time.Since(t0)))
	sp.end()
	return err
}

// trainRep is one verified training run.
type trainRep struct {
	wall       time.Duration
	steps      []time.Duration
	encs, decs []time.Duration // per step, summed over both workers
	avgBits    float64
	loss       float64
	wireBits   int64
}

// trainOnce runs the compressed training and checks loss and wire bits
// against the pinned values. reg, when non-nil, receives the codec and
// allreduce metrics.
func (in *trainInst) trainOnce(ctx context.Context, reg *obs.Registry) (trainRep, error) {
	opts := core.DefaultOptions()
	opts.Metrics = reg
	var clock stepClock
	inner := allreduce.TensorCodec(opts, trainQP)
	factory := func(w int) allreduce.SegmentCodec {
		return &timedCodec{inner: inner(w), clock: &clock, tr: in.e.tr}
	}
	rcfg := allreduce.Config{Codec: factory, ErrorFeedback: true, Metrics: reg}

	var rep trainRep
	stepSpan := in.e.tr.begin("train.step", 0, 1)
	clock.step.Store(stepSpan.id())
	start := time.Now()
	last := start
	res, err := trainRun(ctx, rcfg, func(step int) {
		now := time.Now()
		rep.steps = append(rep.steps, now.Sub(last))
		rep.encs = append(rep.encs, time.Duration(clock.enc.Swap(0)))
		rep.decs = append(rep.decs, time.Duration(clock.dec.Swap(0)))
		last = now
		stepSpan.end()
		stepSpan = in.e.tr.begin("train.step", 0, int64(step+2))
		clock.step.Store(stepSpan.id())
	})
	if err != nil {
		return rep, err
	}
	// The evaluation after the last step belongs to no step.
	rep.wall = last.Sub(start)
	rep.loss = res.Curve[len(res.Curve)-1].Loss
	rep.wireBits, rep.avgBits = res.WireBits, res.AvgBits
	if rep.loss != pinnedLoss || rep.wireBits != pinnedWireBits {
		return rep, checkf("train-ring: loss %.17g and %d wire bits, pinned %.17g and %d",
			rep.loss, rep.wireBits, pinnedLoss, pinnedWireBits)
	}
	return rep, nil
}

// runReps trains repeatedly until dur has passed (at least once).
func (in *trainInst) runReps(ctx context.Context, dur time.Duration, reg *obs.Registry, t *tally) []trainRep {
	var reps []trainRep
	start := time.Now()
	for len(reps) == 0 || time.Since(start) < dur {
		rep, err := in.trainOnce(ctx, reg)
		t.record(err)
		if err != nil {
			break
		}
		reps = append(reps, rep)
	}
	return reps
}

func msList(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

func (in *trainInst) measure(ctx context.Context, dur time.Duration, r *result) error {
	var t tally
	reps := in.runReps(ctx, dur, nil, &t)
	t.into(r)
	if len(reps) == 0 {
		return fmt.Errorf("no training repetition completed: %v", t.errs)
	}
	rows, cols := bucketGeometry()
	perStep := float64(rows * cols * trainReplicas)
	// Steps per second over the summed repetition time: on a shared host
	// CPU speed swings for seconds at a time, so every repetition counts
	// alike rather than one median repetition standing for the run.
	var wall float64
	var enc, dec []float64
	for _, rep := range reps {
		wall += rep.wall.Seconds()
		enc = append(enc, msList(rep.encs)...)
		dec = append(dec, msList(rep.decs)...)
	}
	sps := float64(trainSteps*len(reps)) / wall
	r.set("max_rps", sps, "req/s")
	r.set("throughput_mvals_s", sps*perStep/1e6, "Mvalues/s")
	r.setLatency("write", enc)
	r.setLatency("read", dec)
	r.set("value_mse", in.calibMSE, "mse")
	r.set("bits_per_value", reps[0].avgBits, "bits")
	r.note("final_loss", reps[0].loss)
	r.note("loss_gap_vs_fp16", reps[0].loss-in.fp16Loss)
	r.note("wire_bits", float64(reps[0].wireBits))
	r.note("steps_per_s", sps)
	r.note("reps", float64(len(reps)))
	return nil
}

func (in *trainInst) phase(ctx context.Context, dur time.Duration, traced bool) (phaseOut, error) {
	var t tally
	var reg *obs.Registry
	if traced {
		reg = obs.NewRegistry()
	}
	reps := in.runReps(ctx, dur, reg, &t)
	var stepMs []float64
	var wire int64
	for _, rep := range reps {
		stepMs = append(stepMs, msList(rep.steps)...)
		wire += rep.wireBits
	}
	out := newPhaseOut(&t, stepMs, "train.step")
	out.ops = int64(len(stepMs)) // a training step is this workload's operation
	if !traced {
		return out, nil
	}
	d := summarize(stepMs)
	out.layer["train.step_ms"] = d.P50
	out.layer["train.step_tail_ms"] = d.Tail
	allreduceShares(out.layer, reg)
	out.layer["allreduce.wire_bits_per_step"] = float64(wire) / float64(len(stepMs))
	for _, dir := range []string{"encode", "decode"} {
		if wall := reg.Counter("codec." + dir + ".pool.wall_ns").Value(); wall > 0 {
			out.layer["codec."+dir+".pool_busy_frac"] = float64(reg.Counter("codec."+dir+".pool.busy_ns").Value()) / float64(wall)
		}
	}
	return out, nil
}

func (in *trainInst) samples() []sampleStack {
	rows, cols := bucketGeometry()
	rng := rand.New(rand.NewSource(in.e.seed))
	var out []sampleStack
	for i := 0; i < 2; i++ {
		g := tensorgen.Gradients(rng, rows*cols, 2)
		out = append(out, sampleStack{stack: tensorStack(rows, cols, g), qp: trainQP})
	}
	return out
}
