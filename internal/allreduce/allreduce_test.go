package allreduce

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/quant"
)

// randBuckets builds deterministic per-worker gradient buckets with a
// heavy-tailed-ish mix (mostly small values, occasional spikes) so lossy
// codecs have something real to chew on.
func randBuckets(seed int64, workers, rows, cols int) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	in := make([][]float32, workers)
	for w := range in {
		in[w] = make([]float32, rows*cols)
		for i := range in[w] {
			v := float32(rng.NormFloat64()) * 0.02
			if rng.Intn(64) == 0 {
				v *= 20
			}
			in[w][i] = v
		}
	}
	return in
}

// plainSum is the sequential reference reduction: float32 accumulation in
// ascending worker order, exactly what the sequential data-parallel loop
// computes.
func plainSum(in [][]float32) []float32 {
	out := make([]float32, len(in[0]))
	copy(out, in[0])
	for w := 1; w < len(in); w++ {
		for i, v := range in[w] {
			out[i] += v
		}
	}
	return out
}

func runRing(t *testing.T, cfg Config, in [][]float32) ([][]float32, Stats) {
	t.Helper()
	r, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	out := make([][]float32, cfg.Workers)
	for w := range out {
		out[w] = make([]float32, cfg.Rows*cfg.Cols)
	}
	stats, err := r.Allreduce(context.Background(), in, out)
	if err != nil {
		t.Fatalf("Allreduce: %v", err)
	}
	return out, stats
}

// TestRawRingBitIdenticalToSequentialSum is the anchor property: with the
// lossless codec the concurrent ring computes, on every worker, exactly the
// float32 sum a sequential loop computes — bit for bit, at any ring size,
// any segmentation, any schedule seed.
func TestRawRingBitIdenticalToSequentialSum(t *testing.T) {
	const rows, cols = 24, 32
	for _, workers := range []int{1, 2, 3, 4, 8} {
		for _, segRows := range []int{0, 1, 5} {
			for _, schedSeed := range []int64{0, 1, 99} {
				in := randBuckets(42, workers, rows, cols)
				want := plainSum(in)
				out, stats := runRing(t, Config{
					Workers: workers, Rows: rows, Cols: cols, SegRows: segRows,
					Codec: RawCodec(), ScheduleSeed: schedSeed,
				}, in)
				for w := 0; w < workers; w++ {
					for i := range want {
						if math.Float32bits(out[w][i]) != math.Float32bits(want[i]) {
							t.Fatalf("workers=%d segRows=%d sched=%d: worker %d value %d = %g, want %g",
								workers, segRows, schedSeed, w, i, out[w][i], want[i])
						}
					}
				}
				// FP16 link accounting: traveling frames cover exactly
				// N·numel values at 16 bits each (N>1).
				if workers > 1 {
					wantBits := int64(workers) * int64(rows*cols) * 16
					if stats.WireBits != wantBits {
						t.Fatalf("workers=%d: WireBits=%d want %d", workers, stats.WireBits, wantBits)
					}
					if stats.Values != int64(workers)*int64(rows*cols) {
						t.Fatalf("workers=%d: Values=%d", workers, stats.Values)
					}
				} else if stats.WireBits != 0 {
					t.Fatalf("single worker moved %d wire bits", stats.WireBits)
				}
			}
		}
	}
}

// TestCompressedRingDeterministic pins the tentpole's schedule-independence
// claim on the real codec path: for {cabac, rans} × codec workers {1,2,4,8}
// × schedule seeds, every run reproduces byte-identical outputs and
// identical wire accounting.
func TestCompressedRingDeterministic(t *testing.T) {
	const ringN, rows, cols = 3, 16, 32
	in := randBuckets(7, ringN, rows, cols)
	for _, backend := range []codec.EntropyBackend{codec.BackendCABAC, codec.BackendRANS} {
		var refOut [][]float32
		var refBits int64
		for _, codecWorkers := range []int{1, 2, 4, 8} {
			for _, schedSeed := range []int64{0, 3} {
				opts := core.DefaultOptions()
				opts.Backend = backend
				opts.Workers = codecWorkers
				out, stats := runRing(t, Config{
					Workers: ringN, Rows: rows, Cols: cols,
					Codec: TensorCodec(opts, 12), ErrorFeedback: true,
					ScheduleSeed: schedSeed,
				}, in)
				if refOut == nil {
					refOut, refBits = out, stats.WireBits
					continue
				}
				if stats.WireBits != refBits {
					t.Fatalf("backend=%v workers=%d sched=%d: WireBits %d != ref %d",
						backend, codecWorkers, schedSeed, stats.WireBits, refBits)
				}
				for w := 0; w < ringN; w++ {
					for i := range refOut[w] {
						if math.Float32bits(out[w][i]) != math.Float32bits(refOut[w][i]) {
							t.Fatalf("backend=%v workers=%d sched=%d: worker %d diverges at %d",
								backend, codecWorkers, schedSeed, w, i)
						}
					}
				}
			}
		}
	}
}

// TestGatherBroadcastsIdenticalValues: with a lossy codec every worker must
// still land on the same reconstruction (single gather encode, same bytes
// around the ring) — a worker-divergence bug here silently forks the model.
func TestGatherBroadcastsIdenticalValues(t *testing.T) {
	const ringN, rows, cols = 4, 12, 16
	in := randBuckets(11, ringN, rows, cols)
	out, _ := runRing(t, Config{
		Workers: ringN, Rows: rows, Cols: cols,
		Codec: RTNCodec(4, 64), ErrorFeedback: true,
	}, in)
	for w := 1; w < ringN; w++ {
		for i := range out[0] {
			if math.Float32bits(out[w][i]) != math.Float32bits(out[0][i]) {
				t.Fatalf("worker %d reconstruction diverges from worker 0 at %d: %g vs %g",
					w, i, out[w][i], out[0][i])
			}
		}
	}
}

// TestRTNCodecMatchesQuantGroupwise pins the RTN wire codec's math to the
// reference quantizer: a decoded segment must equal quant.RTNGroupwise's
// dequantization bit for bit, and the accounted bits must match its
// bits-per-value formula.
func TestRTNCodecMatchesQuantGroupwise(t *testing.T) {
	const rows, cols, bitsW, group = 8, 32, 3, 40
	vals := randBuckets(5, 1, rows, cols)[0]
	// Toss in hostile values: the codec must sanitize like the reference.
	vals[3] = float32(math.NaN())
	vals[17] = float32(math.Inf(1))
	c := RTNCodec(bitsW, group)(0)
	payload, recon, gotBits, err := c.Encode(context.Background(), vals, rows, cols)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	want, wantBPV := quant.RTNGroupwise(vals, bitsW, group)
	for i := range want {
		if math.Float32bits(recon[i]) != math.Float32bits(want[i]) {
			t.Fatalf("recon[%d] = %g, reference %g", i, recon[i], want[i])
		}
	}
	if got := float64(gotBits) / float64(len(vals)); math.Abs(got-wantBPV) > 1e-9 {
		t.Fatalf("accounted %.6f bits/value, reference %.6f", got, wantBPV)
	}
	dst := make([]float32, rows*cols)
	if err := c.Decode(context.Background(), payload, rows, cols, dst); err != nil {
		t.Fatalf("decode: %v", err)
	}
	for i := range want {
		if math.Float32bits(dst[i]) != math.Float32bits(recon[i]) {
			t.Fatalf("decode[%d] = %g, encoder recon %g", i, dst[i], recon[i])
		}
	}
}

// TestSignCodecPhases: warmup steps pass through losslessly at 16 b/v;
// after AdvanceStep past warmup, payloads collapse to ~1 bit/value and the
// reconstruction is sign(v)·mean|v|.
func TestSignCodecPhases(t *testing.T) {
	const rows, cols = 4, 16
	vals := randBuckets(9, 1, rows, cols)[0]
	c := SignCodec(2)(0).(*signCodec)
	_, recon, b, err := c.Encode(context.Background(), vals, rows, cols)
	if err != nil {
		t.Fatalf("warmup encode: %v", err)
	}
	if recon != nil {
		t.Fatal("warmup must be lossless (nil recon)")
	}
	if b != int64(16*rows*cols) {
		t.Fatalf("warmup accounted %d bits", b)
	}
	c.AdvanceStep()
	c.AdvanceStep()
	payload, recon, b, err := c.Encode(context.Background(), vals, rows, cols)
	if err != nil {
		t.Fatalf("sign encode: %v", err)
	}
	if recon == nil {
		t.Fatal("sign phase must be lossy")
	}
	if b != int64(rows*cols)+32 {
		t.Fatalf("sign accounted %d bits", b)
	}
	var meanAbs float64
	for _, v := range vals {
		meanAbs += math.Abs(float64(v))
	}
	mean := float32(meanAbs / float64(rows*cols))
	dst := make([]float32, rows*cols)
	if err := c.Decode(context.Background(), payload, rows, cols, dst); err != nil {
		t.Fatalf("decode: %v", err)
	}
	for i, v := range vals {
		want := mean
		if v < 0 {
			want = -mean
		}
		if math.Float32bits(dst[i]) != math.Float32bits(want) || math.Float32bits(recon[i]) != math.Float32bits(want) {
			t.Fatalf("value %d: dst=%g recon=%g want %g", i, dst[i], recon[i], want)
		}
	}
}

// TestErrorFeedbackReducesBias: with a coarse quantizer, repeating the same
// gradient should average out to the truth when EF is on — the accumulated
// output over K steps must track K·truth much more closely than without EF.
func TestErrorFeedbackReducesBias(t *testing.T) {
	const ringN, rows, cols, steps = 2, 8, 16, 24
	in := randBuckets(13, ringN, rows, cols)
	want := plainSum(in)

	accum := func(ef bool) []float64 {
		r, err := New(Config{Workers: ringN, Rows: rows, Cols: cols,
			Codec: RTNCodec(2, 32), ErrorFeedback: ef})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		out := make([][]float32, ringN)
		for w := range out {
			out[w] = make([]float32, rows*cols)
		}
		acc := make([]float64, rows*cols)
		for s := 0; s < steps; s++ {
			if _, err := r.Allreduce(context.Background(), in, out); err != nil {
				t.Fatalf("step %d: %v", s, err)
			}
			for i, v := range out[0] {
				acc[i] += float64(v)
			}
			r.AdvanceStep()
		}
		return acc
	}

	bias := func(acc []float64) float64 {
		var e float64
		for i := range acc {
			d := acc[i]/steps - float64(want[i])
			e += d * d
		}
		return e
	}
	withEF, withoutEF := bias(accum(true)), bias(accum(false))
	if withoutEF == 0 {
		t.Fatal("quantizer was lossless; test is vacuous")
	}
	if withEF > withoutEF*0.25 {
		t.Fatalf("EF bias %.3g not clearly below non-EF bias %.3g", withEF, withoutEF)
	}
}

// TestRingMetrics: the obs registry sees the allreduce.* families with
// consistent totals.
func TestRingMetrics(t *testing.T) {
	const ringN, rows, cols = 3, 12, 16
	reg := obs.NewRegistry()
	in := randBuckets(3, ringN, rows, cols)
	_, stats := runRing(t, Config{
		Workers: ringN, Rows: rows, Cols: cols,
		Codec: RawCodec(), Metrics: reg,
	}, in)
	snap := reg.Snapshot()
	if got := snap.Counters["allreduce.steps"]; got != 1 {
		t.Fatalf("allreduce.steps = %d", got)
	}
	if got := snap.Counters["allreduce.wire.frames"]; got != stats.Frames {
		t.Fatalf("allreduce.wire.frames = %d, stats %d", got, stats.Frames)
	}
	if got := snap.Counters["allreduce.wire.payload_bytes"]; got != stats.PayloadBytes {
		t.Fatalf("allreduce.wire.payload_bytes = %d, stats %d", got, stats.PayloadBytes)
	}
	if stats.Frames == 0 || stats.PayloadBytes == 0 {
		t.Fatal("no wire traffic recorded")
	}
	if snap.Histograms["allreduce.segment.encode_ns"].Count == 0 {
		t.Fatal("no encode timings recorded")
	}
}

// TestRingRejectsBadConfig: constructor and call-time validation.
func TestRingRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{Workers: 0, Rows: 4, Cols: 4, Codec: RawCodec()}); err == nil {
		t.Fatal("0 workers accepted")
	}
	if _, err := New(Config{Workers: 2, Rows: 0, Cols: 4, Codec: RawCodec()}); err == nil {
		t.Fatal("0 rows accepted")
	}
	if _, err := New(Config{Workers: 2, Rows: 4, Cols: 4}); err == nil {
		t.Fatal("nil codec accepted")
	}
	r, err := New(Config{Workers: 2, Rows: 4, Cols: 4, Codec: RawCodec()})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	in := randBuckets(1, 2, 4, 4)
	out := [][]float32{make([]float32, 16), make([]float32, 15)}
	if _, err := r.Allreduce(context.Background(), in, out); err == nil {
		t.Fatal("short output buffer accepted")
	}
}

// TestRingOutMayAliasIn: writing the reduction over the input buffers is
// explicitly allowed (the train loop reuses its bucket that way).
func TestRingOutMayAliasIn(t *testing.T) {
	const ringN, rows, cols = 3, 8, 8
	in := randBuckets(21, ringN, rows, cols)
	want := plainSum(in)
	r, err := New(Config{Workers: ringN, Rows: rows, Cols: cols, Codec: RawCodec()})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := r.Allreduce(context.Background(), in, in); err != nil {
		t.Fatalf("Allreduce: %v", err)
	}
	for w := 0; w < ringN; w++ {
		for i := range want {
			if math.Float32bits(in[w][i]) != math.Float32bits(want[i]) {
				t.Fatalf("aliased run: worker %d value %d = %g, want %g", w, i, in[w][i], want[i])
			}
		}
	}
}
