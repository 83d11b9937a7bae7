package train

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/allreduce"
	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/nn"
)

func smallSetup(seed int64) (*nn.Transformer, *data.Corpus) {
	rng := rand.New(rand.NewSource(seed))
	cfg := nn.Config{Vocab: 32, Dim: 16, Heads: 2, Layers: 4, SeqLen: 16, Hidden: 32}
	m := nn.NewTransformer(rng, cfg)
	corpus := data.NewCorpus(seed, 32, 20000, 4000)
	return m, corpus
}

func TestPipelineUncompressedLearns(t *testing.T) {
	m, corpus := smallSetup(1)
	res, err := RunPipeline(m, corpus, nn.NewAdam(3e-3), PipelineConfig{
		Stages: 4, MicroBatch: 4, AccumSteps: 2, EvalEvery: 0, EvalBatches: 4,
	}, 120, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Curve[len(res.Curve)-1].Loss > res.Curve[5].Loss*0.8 {
		t.Fatalf("pipeline training not learning: %.3f -> %.3f",
			res.Curve[5].Loss, res.Curve[len(res.Curve)-1].Loss)
	}
	if res.ActBits != 16 || res.GradBits != 16 {
		t.Fatalf("uncompressed run should report 16-bit comm, got %.1f/%.1f", res.ActBits, res.GradBits)
	}
	if res.FinalPPL > 32 {
		t.Fatalf("final ppl %.1f above vocab", res.FinalPPL)
	}
}

func TestPipelineWithActivationCompressionStillLearns(t *testing.T) {
	m, corpus := smallSetup(3)
	res, err := RunPipeline(m, corpus, nn.NewAdam(3e-3), PipelineConfig{
		Stages: 4, MicroBatch: 4, AccumSteps: 2,
		CompressActivations: LLM265Transform(core.DefaultOptions(), 3.5),
	}, 120, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.ActBits > 4.0 {
		t.Fatalf("activation compression averaged %.2f b/v, want ≲3.5", res.ActBits)
	}
	if res.Curve[len(res.Curve)-1].Loss > res.Curve[5].Loss*0.85 {
		t.Fatalf("compressed-activation training not learning: %.3f -> %.3f",
			res.Curve[5].Loss, res.Curve[len(res.Curve)-1].Loss)
	}
}

func TestPipelineResidualGradCompression(t *testing.T) {
	m, corpus := smallSetup(5)
	res, err := RunPipeline(m, corpus, nn.NewAdam(3e-3), PipelineConfig{
		Stages: 2, MicroBatch: 4, AccumSteps: 1,
		CompressActivations: LLM265Transform(core.DefaultOptions(), 3.5),
		CompressActGrads:    LLM265ResidualTransform(core.DefaultOptions(), 3.5, 3.5, 40),
	}, 80, 6)
	if err != nil {
		t.Fatal(err)
	}
	// Phase-1 ≈ 7 b/v for 40 steps, phase-2 ≈ 11.5 for 40 → average ≈ 9.3.
	if res.GradBits < 6 || res.GradBits > 13 {
		t.Fatalf("gradient bits %.2f outside residual-compensation band", res.GradBits)
	}
	if res.Curve[len(res.Curve)-1].Loss > res.Curve[5].Loss {
		t.Fatalf("residual-compensated training diverged")
	}
}

func TestBoundaryDetection(t *testing.T) {
	// 4 blocks, 2 stages → boundary after block 1 only.
	if !isBoundary(1, 2, 4) || isBoundary(0, 2, 4) || isBoundary(3, 2, 4) || isBoundary(2, 2, 4) {
		t.Fatal("boundary logic wrong for 4 blocks / 2 stages")
	}
	// 4 blocks, 4 stages → boundaries after 0,1,2.
	for i := 0; i < 3; i++ {
		if !isBoundary(i, 1, 4) {
			t.Fatalf("block %d should be a boundary", i)
		}
	}
	if isBoundary(3, 1, 4) {
		t.Fatal("last block is not a boundary")
	}
}

func TestDataParallelUncompressed(t *testing.T) {
	m, corpus := smallSetup(7)
	res, err := RunDataParallelRing(context.Background(), m, corpus, nn.NewAdam(3e-3), DPConfig{
		Replicas: 2, Batch: 4, EvalBatches: 4,
	}, allreduce.Config{}, 100, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgBits != 16 {
		t.Fatalf("uncompressed DP avg bits %.1f", res.AvgBits)
	}
	if res.Curve[len(res.Curve)-1].Loss > res.Curve[5].Loss*0.8 {
		t.Fatal("DP training not learning")
	}
}

func TestDataParallelLLM265(t *testing.T) {
	m, corpus := smallSetup(9)
	res, err := RunDataParallelRing(context.Background(), m, corpus, nn.NewAdam(3e-3), DPConfig{
		Replicas: 2, Batch: 4,
		Compress: LLM265DP(core.DefaultOptions(), 2.6),
	}, allreduce.Config{}, 100, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgBits > 3.2 {
		t.Fatalf("LLM.265 DP averaged %.2f b/v, want ≈2.6", res.AvgBits)
	}
	if res.Curve[len(res.Curve)-1].Loss > res.Curve[5].Loss*0.9 {
		t.Fatal("LLM.265-compressed DP training not learning")
	}
}

func TestDataParallelOneBit(t *testing.T) {
	m, corpus := smallSetup(11)
	steps := 100
	ob := baselines.NewOneBitCompressor(steps * 15 / 100)
	opt := nn.NewAdam(3e-3)
	res, err := RunDataParallelRing(context.Background(), m, corpus, opt, DPConfig{
		Replicas: 2, Batch: 4,
		Compress: OneBitDP(ob),
	}, allreduce.Config{}, steps, 12, func(step int) {
		ob.AdvanceStep()
		if !ob.InWarmup() {
			opt.FreezeVariance = true
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// 15% warm-up at 16 bits + 85% at 1 bit ≈ 3.25.
	if res.AvgBits < 2.5 || res.AvgBits > 4.0 {
		t.Fatalf("1-bit Adam avg bits %.2f, want ≈3.25", res.AvgBits)
	}
	if res.Curve[len(res.Curve)-1].Loss > res.Curve[5].Loss {
		t.Fatal("1-bit Adam diverged")
	}
}

func TestLLM265BeatsRTN2OnGradientBuckets(t *testing.T) {
	// The mechanism behind Fig. 10's ordering (LLM.265@2.6 > RTN-4 >
	// RTN-2): on real gradient buckets from a training run, the codec's
	// reconstruction error at 2.6 bits is far below group-wise 2-bit RTN.
	// (The trajectory-level separation needs thousands of steps and is
	// exercised by the Fig. 10 experiment, not this unit test.)
	m, corpus := smallSetup(13)
	rng := rand.New(rand.NewSource(14))
	opt := nn.NewAdam(3e-3)
	var bucket *nn.Mat
	for step := 0; step < 40; step++ {
		toks, tgts := corpus.Batch(rng, 4, m.Cfg.SeqLen)
		m.ZeroGrads()
		m.TrainStep(toks, tgts)
		opt.Step(m.Params())
	}
	var flat []float32
	for _, p := range m.Params() {
		if isMatrixGrad(p) {
			flat = append(flat, p.G.V...)
		}
	}
	rows := (len(flat) + bucketCols - 1) / bucketCols
	buf := make([]float32, rows*bucketCols)
	copy(buf, flat)
	bucket = &nn.Mat{R: rows, C: bucketCols, V: buf}

	codec := LLM265DP(core.DefaultOptions(), 2.6)
	recC, bitsC, err := codec(0, bucket)
	if err != nil {
		t.Fatal(err)
	}
	rtn := RTNDP(2, 128)
	recR, bitsR, err := rtn(0, bucket)
	if err != nil {
		t.Fatal(err)
	}
	mse := func(a, b *nn.Mat) float64 {
		var s float64
		for i := range a.V {
			d := float64(a.V[i]) - float64(b.V[i])
			s += d * d
		}
		return s / float64(len(a.V))
	}
	mseC, mseR := mse(bucket, recC), mse(bucket, recR)
	if bitsC > 3.0 {
		t.Fatalf("codec used %.2f b/v, want ≈2.6", bitsC)
	}
	if bitsR > 2.5 {
		t.Fatalf("RTN-2 used %.2f b/v", bitsR)
	}
	if mseC*3 > mseR {
		t.Fatalf("codec MSE %.3g should be well below RTN-2 MSE %.3g", mseC, mseR)
	}
}
