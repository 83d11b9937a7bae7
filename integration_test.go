// End-to-end integration tests spanning the full stack: substrate training,
// weight/KV/gradient compression through the codec, and the evaluation
// harness — the flows the examples demonstrate, checked automatically.
package repro_test

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/allreduce"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/llm"
	"repro/internal/nn"
	"repro/internal/train"
)

// sharedModel trains one small model for the integration tests.
var (
	intCorpus *data.Corpus
	intModel  *nn.Transformer
)

func integrationSetup(t *testing.T) (*data.Corpus, *nn.Transformer) {
	t.Helper()
	if testing.Short() {
		t.Skip("integration test trains a model")
	}
	if intModel == nil {
		intCorpus = data.NewCorpus(5, 64, 40000, 8000)
		spec := llm.ModelSpec{
			Name:       "integration",
			Cfg:        nn.Config{Vocab: 64, Dim: 32, Heads: 4, Layers: 2, SeqLen: 24, Hidden: 64},
			TrainSteps: 300, LR: 3e-3, Batch: 8,
		}
		intModel = llm.Train(spec, intCorpus, 11)
	}
	return intCorpus, intModel
}

func TestEndToEndWeightCompressionPipeline(t *testing.T) {
	corpus, m := integrationSetup(t)
	snap := llm.SnapshotWeights(m)
	defer llm.RestoreWeights(m, snap)

	base := llm.Perplexity(m, corpus, 4)
	bits, err := llm.CompressModel(m, llm.LLM265WeightCompressor(core.DefaultOptions(), 2.9))
	if err != nil {
		t.Fatal(err)
	}
	after := llm.Perplexity(m, corpus, 4)
	if bits > 2.9 {
		t.Fatalf("weight compression exceeded budget: %.3f b/v", bits)
	}
	if after > base*1.25 {
		t.Fatalf("2.9-bit weights cost too much: ppl %.2f -> %.2f", base, after)
	}
	t.Logf("weights: %.2f b/v (%.1fx), ppl %.3f -> %.3f", bits, 16/bits, base, after)
}

func TestEndToEndGenerationWithCompressedCache(t *testing.T) {
	corpus, m := integrationSetup(t)
	prompt := corpus.TrainTokens()[50:56]

	plain := m.Generate(rand.New(rand.NewSource(3)), prompt, 8, 0)

	// Compress the cache before each decode step at a generous bitrate;
	// greedy outputs should mostly survive.
	opts := core.DefaultOptions()
	rc := core.NewRateController(opts, 6)
	cache := nn.NewKVCache(len(m.Blocks), m.Cfg.Dim)
	var logits []float32
	pos := 0
	for _, tok := range prompt {
		logits = m.DecodeStep(cache, tok, pos)
		pos++
	}
	var out []int
	for i := 0; i < 8 && pos < m.Cfg.SeqLen; i++ {
		cache.Transform(func(_ int, k, v *nn.Mat) (*nn.Mat, *nn.Mat) {
			kc := roundtripMat(t, rc, k)
			vc := roundtripMat(t, rc, v)
			return kc, vc
		})
		best := 0
		for j, v := range logits {
			if v > logits[best] {
				best = j
			}
		}
		out = append(out, best)
		logits = m.DecodeStep(cache, best, pos)
		pos++
	}
	match := 0
	for i := range out {
		if out[i] == plain[i] {
			match++
		}
	}
	if match < len(out)/2 {
		t.Fatalf("compressed-cache generation diverged: %d/%d tokens match", match, len(out))
	}
}

func roundtripMat(t *testing.T, rc *core.RateController, m *nn.Mat) *nn.Mat {
	t.Helper()
	tensor := core.NewTensor(m.R, m.C)
	copy(tensor.Data, m.V)
	d, _, err := rc.Roundtrip(tensor)
	if err != nil {
		t.Fatal(err)
	}
	out := nn.NewMat(m.R, m.C)
	copy(out.V, d.Data)
	return out
}

func TestEndToEndDistributedTrainingParity(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	corpus := data.NewCorpus(6, 64, 30000, 6000)
	cfg := nn.Config{Vocab: 64, Dim: 16, Heads: 2, Layers: 2, SeqLen: 16, Hidden: 32}

	run := func(compress train.GradCompressor) float64 {
		m := nn.NewTransformer(rand.New(rand.NewSource(77)), cfg)
		res, err := train.RunDataParallelRing(context.Background(), m, corpus, nn.NewAdam(3e-3), train.DPConfig{
			Replicas: 2, Batch: 4, Compress: compress, EvalBatches: 4,
		}, allreduce.Config{}, 120, 8, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res.FinalPPL
	}
	base := run(nil)
	comp := run(train.LLM265DP(core.DefaultOptions(), 2.6))
	if math.IsNaN(comp) || comp > base*1.15 {
		t.Fatalf("compressed DP training ppl %.2f too far above uncompressed %.2f", comp, base)
	}
}

func TestEndToEndContainerFileFlow(t *testing.T) {
	// The CLI flow without the CLI: tensor → container bytes → tensor.
	rng := rand.New(rand.NewSource(12))
	w := core.NewTensor(96, 96)
	for i := range w.Data {
		w.Data[i] = float32(rng.NormFloat64())
	}
	opts := core.DefaultOptions()
	enc, err := opts.EncodeToBitrate(w, 3.5)
	if err != nil {
		t.Fatal(err)
	}
	blob := enc.Marshal()
	dec, err := core.UnmarshalEncoded(blob)
	if err != nil {
		t.Fatal(err)
	}
	got, err := opts.Decode(dec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := opts.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatal("container round trip changed the reconstruction")
		}
	}
}
