package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/allreduce"
	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/nn"
	"repro/internal/train"
)

// freshModel builds an untrained model from a zoo spec with a fixed init
// seed so every training-experiment arm starts from identical weights.
func freshModel(name string, seed int64) *nn.Transformer {
	spec, ok := llm.Zoo()[name]
	if !ok {
		panic(fmt.Sprintf("experiments: unknown model %q", name))
	}
	return nn.NewTransformer(rand.New(rand.NewSource(seed)), spec.Cfg)
}

// Fig9 reproduces pipeline-parallel training with compressed inter-stage
// communication: uncompressed, LLM.265(A), LLM.265(A)+GQ and LLM.265(A+G)
// with residual compensation.
func Fig9(ctx *Ctx) *Table {
	const modelName = "pythia-pp"
	corpus := ctx.Corpus()
	steps := ctx.trainSteps(800)
	switchStep := steps * 5 / 16 // the paper's 2500/8000 ratio

	type arm struct {
		name string
		cfg  train.PipelineConfig
	}
	base := train.PipelineConfig{Stages: 4, MicroBatch: 4, AccumSteps: 2}
	arms := []arm{
		{"uncompressed", base},
		{"LLM.265(A@3.5)", withAct(base, train.LLM265Transform(core.DefaultOptions(), 3.5))},
		{"LLM.265(A)+GQ (RTN-8 grads)", withActGrad(base,
			train.LLM265Transform(core.DefaultOptions(), 3.5), train.RTNTransform(8, 128))},
		{"LLM.265(A+G) residual comp.", withActGrad(base,
			train.LLM265Transform(core.DefaultOptions(), 3.5),
			train.LLM265ResidualTransform(core.DefaultOptions(), 3.5, 3.5, switchStep))},
	}

	t := &Table{
		ID:      "fig9",
		Title:   fmt.Sprintf("Pipeline-parallel training (%d steps, 4 stages)", steps),
		Columns: []string{"config", "act bits", "grad bits", "loss@25%", "loss@100%", "final val ppl"},
	}
	for _, a := range arms {
		m := freshModel(modelName, 1234)
		res, err := train.RunPipeline(m, corpus, nn.NewAdam(3e-3), a.cfg, steps, 55)
		if err != nil {
			panic(err)
		}
		q := res.Curve[len(res.Curve)/4].Loss
		last := res.Curve[len(res.Curve)-1].Loss
		t.AddRow(a.name, f2(res.ActBits), f2(res.GradBits), f2(q), f2(last), f2(res.FinalPPL))
	}
	t.Notes = append(t.Notes,
		"paper Fig. 9: LLM.265(A) converges at least as fast as uncompressed (78% comm saved); naive gradient RTN deviates; residual compensation (avg ~10.1 bits) tracks the uncompressed loss")
	return t
}

func withAct(c train.PipelineConfig, a train.TensorTransform) train.PipelineConfig {
	c.CompressActivations = a
	return c
}

func withActGrad(c train.PipelineConfig, a, g train.TensorTransform) train.PipelineConfig {
	c.CompressActivations = a
	c.CompressActGrads = g
	return c
}

// dpArm is one Fig. 10 configuration: build returns the optimizer, the
// gradient compressor and an optional per-step callback (used by warm-up
// baselines to advance phase and freeze Adam's variance).
type dpArm struct {
	name  string
	build func(steps int) (nn.Optimizer, train.GradCompressor, func(step int))
}

func dpArms() []dpArm {
	plain := func(c train.GradCompressor) func(int) (nn.Optimizer, train.GradCompressor, func(int)) {
		return func(int) (nn.Optimizer, train.GradCompressor, func(int)) {
			return nn.NewAdam(3e-3), c, nil
		}
	}
	oneBit := func(lamb bool) func(steps int) (nn.Optimizer, train.GradCompressor, func(int)) {
		return func(steps int) (nn.Optimizer, train.GradCompressor, func(int)) {
			ob := baselines.NewOneBitCompressor(steps * 15 / 100)
			if lamb {
				opt := nn.NewLAMB(2e-3)
				return opt, train.OneBitDP(ob), func(int) {
					ob.AdvanceStep()
					if !ob.InWarmup() {
						opt.FreezeVariance = true
					}
				}
			}
			opt := nn.NewAdam(3e-3)
			return opt, train.OneBitDP(ob), func(int) {
				ob.AdvanceStep()
				if !ob.InWarmup() {
					opt.FreezeVariance = true
				}
			}
		}
	}
	return []dpArm{
		{"uncompressed", plain(nil)},
		{"LLM.265 (2.6b)", plain(train.LLM265DP(core.DefaultOptions(), 2.6))},
		{"LLM.265 (1.4b)", plain(train.LLM265DP(core.DefaultOptions(), 1.4))},
		{"LLM.265 (0.8b)", plain(train.LLM265DP(core.DefaultOptions(), 0.8))},
		{"1-bit Adam", oneBit(false)},
		{"1-bit LAMB", oneBit(true)},
		{"RTN 4-bit", plain(train.RTNDP(4, 128))},
		{"RTN 2-bit", plain(train.RTNDP(2, 128))},
	}
}

// fig10Models caches the trained DP models for Fig. 11.
var fig10Models map[string]*nn.Transformer

// Fig10 reproduces data-parallel training with compressed gradients.
func Fig10(ctx *Ctx) *Table {
	const modelName = "pythia-dp"
	corpus := ctx.Corpus()
	steps := ctx.trainSteps(800)

	t := &Table{
		ID:      "fig10",
		Title:   fmt.Sprintf("Data-parallel training (%d steps, 4 replicas)", steps),
		Columns: []string{"config", "avg bits", "final loss", "final val ppl"},
	}
	fig10Models = map[string]*nn.Transformer{}
	for _, a := range dpArms() {
		m := freshModel(modelName, 4321)
		opt, compress, onStep := a.build(steps)
		res, err := train.RunDataParallelRing(context.TODO(), m, corpus, opt, train.DPConfig{
			Replicas: 4, Batch: 4, Compress: compress, EvalBatches: 4,
		}, allreduce.Config{}, steps, 66, onStep)
		if err != nil {
			panic(err)
		}
		fig10Models[a.name] = m
		t.AddRow(a.name, f2(res.AvgBits), f2(res.Curve[len(res.Curve)-1].Loss), f2(res.FinalPPL))
	}
	t.Notes = append(t.Notes,
		"paper Fig. 10 ordering: LLM.265(2.6) > RTN-4 > LLM.265(1.4) > LLM.265(0.8) ~ 1-bit LAMB > RTN-2; LLM.265 needs no warm-up or optimizer change")
	return t
}

// Fig11 evaluates the Fig. 10 models on the downstream task suite.
func Fig11(ctx *Ctx) *Table {
	if fig10Models == nil {
		Fig10(ctx)
	}
	tasks := ctx.Tasks()
	t := &Table{
		ID:      "fig11",
		Title:   "Downstream accuracy of DP-trained models",
		Columns: []string{"config", "mean accuracy", "vs uncompressed"},
	}
	base := 0.0
	if m, ok := fig10Models["uncompressed"]; ok {
		_, base = llm.EvalTasks(m, tasks)
	}
	for _, name := range []string{"uncompressed", "LLM.265 (2.6b)", "LLM.265 (1.4b)", "1-bit Adam", "RTN 4-bit"} {
		m, ok := fig10Models[name]
		if !ok {
			continue
		}
		_, acc := llm.EvalTasks(m, tasks)
		rel := "-"
		if base > 0 {
			rel = f2(acc / base)
		}
		t.AddRow(name, f2(acc), rel)
	}
	t.Notes = append(t.Notes,
		"paper Fig. 11: LLM.265(1.4b) keeps ≥95.2% and LLM.265(2.6b) ≥96.6% of the uncompressed model's accuracy")
	return t
}

// realGradientBucket trains the DP stand-in briefly and returns the
// flattened weight-matrix gradient bucket of the final step — the tensor
// family the Fig. 14/15 information-efficiency studies compress.
func realGradientBucket(ctx *Ctx, steps int) []float32 {
	corpus := ctx.Corpus()
	m := freshModel("pythia-dp", 1414)
	opt := nn.NewAdam(3e-3)
	rng := rand.New(rand.NewSource(14))
	for step := 0; step < steps; step++ {
		toks, tgts := corpus.Batch(rng, 4, m.Cfg.SeqLen)
		m.ZeroGrads()
		m.TrainStep(toks, tgts)
		if step < steps-1 {
			opt.Step(m.Params())
		}
	}
	var flat []float32
	for _, p := range m.Params() {
		if p.G.R >= 8 && p.G.C >= 8 {
			flat = append(flat, p.G.V...)
		}
	}
	return flat
}
