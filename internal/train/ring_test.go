package train

import (
	"context"
	"math"
	"testing"

	"repro/internal/allreduce"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/nn"
)

// cloneWeights snapshots every parameter's weight values.
func cloneWeights(m *nn.Transformer) [][]float32 {
	var out [][]float32
	for _, p := range m.Params() {
		w := make([]float32, len(p.W.V))
		copy(w, p.W.V)
		out = append(out, w)
	}
	return out
}

func weightsBitIdentical(a, b [][]float32) (int, int, bool) {
	for pi := range a {
		for i := range a[pi] {
			if math.Float32bits(a[pi][i]) != math.Float32bits(b[pi][i]) {
				return pi, i, false
			}
		}
	}
	return 0, 0, true
}

// TestRingTwinBitIdenticalUncompressed is the property-matrix anchor: the
// concurrent ring trainer with a lossless wire must reproduce the
// sequential oracle run bit for bit — every weight, every curve
// point — across replica counts and schedule seeds.
func TestRingTwinBitIdenticalUncompressed(t *testing.T) {
	const steps = 12
	for _, replicas := range []int{1, 2, 4} {
		for _, schedSeed := range []int64{0, 5} {
			mSeq, corpusSeq := smallSetup(31)
			seqRes, err := runSequential(mSeq, corpusSeq, nn.NewAdam(3e-3), DPConfig{
				Replicas: replicas, Batch: 2, EvalBatches: 2,
			}, steps, 32, nil)
			if err != nil {
				t.Fatal(err)
			}

			mRing, corpusRing := smallSetup(31)
			ringRes, err := RunDataParallelRing(context.Background(), mRing, corpusRing,
				nn.NewAdam(3e-3), DPConfig{Replicas: replicas, Batch: 2, EvalBatches: 2},
				allreduce.Config{ScheduleSeed: schedSeed}, steps, 32, nil)
			if err != nil {
				t.Fatal(err)
			}

			if pi, i, ok := weightsBitIdentical(cloneWeights(mSeq), cloneWeights(mRing)); !ok {
				t.Fatalf("replicas=%d sched=%d: weights diverge at param %d index %d", replicas, schedSeed, pi, i)
			}
			for s := range seqRes.Curve {
				if seqRes.Curve[s].Loss != ringRes.Curve[s].Loss {
					t.Fatalf("replicas=%d sched=%d: loss curve diverges at step %d: %v vs %v",
						replicas, schedSeed, s, seqRes.Curve[s].Loss, ringRes.Curve[s].Loss)
				}
			}
			if seqRes.FinalPPL != ringRes.FinalPPL {
				t.Fatalf("replicas=%d: final PPL %v vs %v", replicas, seqRes.FinalPPL, ringRes.FinalPPL)
			}
			if ringRes.AvgBits != 16 {
				t.Fatalf("uncompressed ring AvgBits = %v", ringRes.AvgBits)
			}
		}
	}
}

// TestRingTwinBitIdenticalWithGradCompressor: the sequential GradCompressor
// seam must survive the move to the concurrent trainer unchanged — stateful
// compressors see replicas in the same order, so the runs are bit-identical.
func TestRingTwinBitIdenticalWithGradCompressor(t *testing.T) {
	const steps = 8
	mSeq, corpusSeq := smallSetup(41)
	if _, err := runSequential(mSeq, corpusSeq, nn.NewAdam(3e-3), DPConfig{
		Replicas: 2, Batch: 2, Compress: RTNDP(4, 128),
	}, steps, 42, nil); err != nil {
		t.Fatal(err)
	}

	mRing, corpusRing := smallSetup(41)
	if _, err := RunDataParallelRing(context.Background(), mRing, corpusRing,
		nn.NewAdam(3e-3), DPConfig{Replicas: 2, Batch: 2, Compress: RTNDP(4, 128)},
		allreduce.Config{}, steps, 42, nil); err != nil {
		t.Fatal(err)
	}
	if pi, i, ok := weightsBitIdentical(cloneWeights(mSeq), cloneWeights(mRing)); !ok {
		t.Fatalf("GradCompressor seam diverges at param %d index %d", pi, i)
	}
}

// TestRingTwinWireCodecDeterministic: with the real codec on the wire, the
// training trajectory is byte/loss-deterministic across codec worker counts
// {1,2,4,8}, random channel schedules, and both entropy backends.
func TestRingTwinWireCodecDeterministic(t *testing.T) {
	const steps = 4
	for _, backend := range []codec.EntropyBackend{codec.BackendCABAC, codec.BackendRANS} {
		var refW [][]float32
		var refBits int64
		for _, codecWorkers := range []int{1, 2, 4, 8} {
			for _, schedSeed := range []int64{0, 9} {
				opts := core.DefaultOptions()
				opts.Backend = backend
				opts.Workers = codecWorkers
				m, corpus := smallSetup(51)
				res, err := RunDataParallelRing(context.Background(), m, corpus,
					nn.NewAdam(3e-3), DPConfig{Replicas: 2, Batch: 2},
					allreduce.Config{
						Codec:         allreduce.TensorCodec(opts, 24),
						ErrorFeedback: true,
						ScheduleSeed:  schedSeed,
					}, steps, 52, nil)
				if err != nil {
					t.Fatal(err)
				}
				w := cloneWeights(m)
				if refW == nil {
					refW, refBits = w, res.WireBits
					continue
				}
				if res.WireBits != refBits {
					t.Fatalf("backend=%v workers=%d sched=%d: WireBits %d != ref %d",
						backend, codecWorkers, schedSeed, res.WireBits, refBits)
				}
				if pi, i, ok := weightsBitIdentical(refW, w); !ok {
					t.Fatalf("backend=%v workers=%d sched=%d: weights diverge at param %d index %d",
						backend, codecWorkers, schedSeed, pi, i)
				}
			}
		}
		if refBits == 0 {
			t.Fatalf("backend=%v: no wire bits accounted", backend)
		}
	}
}

// TestRingTwinCompressedStillLearns: the wire-codec path at a real bitrate
// keeps the model converging and reports compressed accounting.
func TestRingTwinCompressedStillLearns(t *testing.T) {
	m, corpus := smallSetup(61)
	res, err := RunDataParallelRing(context.Background(), m, corpus,
		nn.NewAdam(3e-3), DPConfig{Replicas: 2, Batch: 4},
		allreduce.Config{
			Codec:         allreduce.TensorCodec(core.DefaultOptions(), 24),
			ErrorFeedback: true,
		}, 60, 62, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Curve[len(res.Curve)-1].Loss > res.Curve[5].Loss*0.9 {
		t.Fatalf("ring-compressed training not learning: %.3f -> %.3f",
			res.Curve[5].Loss, res.Curve[len(res.Curve)-1].Loss)
	}
	if res.AvgBits <= 0 || res.AvgBits >= 16 {
		t.Fatalf("compressed AvgBits = %.2f, want in (0,16)", res.AvgBits)
	}
	if res.EncodeMBps <= 0 {
		t.Fatal("no encode throughput measured")
	}
}

// TestRingTwinSeamExclusive: the two compression seams cannot be combined,
// and the ring geometry cannot be forced by the caller.
func TestRingTwinSeamExclusive(t *testing.T) {
	m, corpus := smallSetup(71)
	_, err := RunDataParallelRing(context.Background(), m, corpus, nn.NewAdam(3e-3),
		DPConfig{Replicas: 2, Batch: 2, Compress: RTNDP(4, 128)},
		allreduce.Config{Codec: allreduce.RawCodec()}, 1, 72, nil)
	if err == nil {
		t.Fatal("both seams accepted")
	}
	_, err = RunDataParallelRing(context.Background(), m, corpus, nn.NewAdam(3e-3),
		DPConfig{Replicas: 2, Batch: 2},
		allreduce.Config{Workers: 5}, 1, 72, nil)
	if err == nil {
		t.Fatal("forced ring geometry accepted")
	}
}

// TestRingTwinCancellation: a cancelled context unwinds the trainer with the
// context error.
func TestRingTwinCancellation(t *testing.T) {
	m, corpus := smallSetup(81)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunDataParallelRing(ctx, m, corpus, nn.NewAdam(3e-3),
		DPConfig{Replicas: 2, Batch: 2}, allreduce.Config{}, 4, 82, nil); err == nil {
		t.Fatal("cancelled context did not stop the run")
	}
}

// TestLossEMASeedRegression pins the lossEMA fix: a first step whose loss is
// exactly zero must seed the average at zero and then track subsequent
// losses, instead of re-seeding forever. Before the fix, emaUpdate's
// ema==0 sentinel made every later step re-seed, so the curve jumped to the
// raw per-step loss instead of smoothing.
func TestLossEMASeedRegression(t *testing.T) {
	// Trajectory: 0 at step 0, then constant 1.0. The correct EMA after
	// seeding 0 is 1−0.9^k — far below 1.0 at k=1 (0.1). The broken
	// sentinel re-seeds to 1.0 at step 1 and blends from there.
	ema := 0.0
	losses := []float64{0, 1, 1, 1}
	for step, l := range losses {
		ema = emaUpdate(step, ema, l)
	}
	want := 0.0
	for step, l := range losses {
		if step == 0 {
			want = l
			continue
		}
		want = 0.9*want + 0.1*l
	}
	if math.Abs(ema-want) > 1e-15 {
		t.Fatalf("ema = %v, want %v", ema, want)
	}
	// The decisive check: after [0, 1] the EMA must be 0.1, not 1.0.
	ema = emaUpdate(0, 0, 0)
	ema = emaUpdate(1, ema, 1)
	if math.Abs(ema-0.1) > 1e-15 {
		t.Fatalf("zero-seeded EMA after one unit loss = %v, want 0.1 (sentinel bug)", ema)
	}
	// And a legitimate zero-crossing trajectory must not re-seed either.
	ema = emaUpdate(0, 0, 5)
	ema = emaUpdate(1, ema, -5) // crosses zero: 0.9·5 + 0.1·(−5) = 4.0
	if math.Abs(ema-4.0) > 1e-15 {
		t.Fatalf("EMA after sign flip = %v, want 4.0", ema)
	}
}

// TestBucketGatherScatterSteadyStateAllocs pins the satellite hoist: the
// per-replica-per-step bucket gather/compress-scatter path must not allocate
// in steady state (the bucket Mat is reused for the whole run).
func TestBucketGatherScatterSteadyStateAllocs(t *testing.T) {
	m, _ := smallSetup(91)
	params := m.Params()
	bb := newBucketBuffer(params)
	if bb.total == 0 {
		t.Fatal("no bucketed parameters in the test model")
	}
	// Warm once so lazy state settles.
	bb.scatter(bb.gather())
	allocs := testing.AllocsPerRun(50, func() {
		b := bb.gather()
		bb.scatter(b)
		bb.scatterSum(b.V)
	})
	if allocs != 0 {
		t.Fatalf("bucket gather/scatter allocates %.1f objects per replica-step after hoist, want 0", allocs)
	}
}

// TestBucketBufferRoundTrip: gather/scatter move gradients faithfully and
// keep the padding tail zero.
func TestBucketBufferRoundTrip(t *testing.T) {
	m, _ := smallSetup(95)
	params := m.Params()
	for i, p := range params {
		for j := range p.G.V {
			p.G.V[j] = float32(i*1000+j) * 1e-3
		}
	}
	bb := newBucketBuffer(params)
	b := bb.gather()
	for i := bb.total; i < len(b.V); i++ {
		if b.V[i] != 0 {
			t.Fatalf("padding tail dirty at %d: %g", i, b.V[i])
		}
	}
	// Corrupt gradients, scatter back, verify restoration.
	snapshot := make([]float32, len(b.V))
	copy(snapshot, b.V)
	for _, p := range bb.bucketed {
		for j := range p.G.V {
			p.G.V[j] = -1
		}
	}
	bb.scatter(&nn.Mat{R: b.R, C: b.C, V: snapshot})
	off := 0
	for _, p := range bb.bucketed {
		for j := range p.G.V {
			if p.G.V[j] != snapshot[off+j] {
				t.Fatalf("scatter mismatch at param offset %d+%d", off, j)
			}
		}
		off += len(p.G.V)
	}
}
