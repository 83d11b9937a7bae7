// Command trainsim runs the distributed-training simulators with compressed
// communication, printing loss curves — a CLI wrapper over internal/train.
//
//	trainsim -mode dp -method llm265 -bits 2.6 -steps 400
//	trainsim -mode pp -method residual -steps 400
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"

	"repro/internal/allreduce"
	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/llm"
	"repro/internal/nn"
	"repro/internal/train"
)

func main() {
	var (
		mode   = flag.String("mode", "dp", "dp (data parallel) or pp (pipeline parallel)")
		method = flag.String("method", "llm265", "dp: none|llm265|onebit-adam|onebit-lamb|rtn; pp: none|act|residual|rtn-grads")
		bits   = flag.Float64("bits", 2.6, "target bits/value for llm265 methods")
		steps  = flag.Int("steps", 300, "optimizer steps")
		seed   = flag.Int64("seed", 7, "data seed")
	)
	flag.Parse()

	corpus := data.NewCorpus(1, 64, 60000, 10000)
	every := *steps / 10
	if every == 0 {
		every = 1
	}

	switch *mode {
	case "dp":
		runDP(corpus, *method, *bits, *steps, *seed, every)
	case "pp":
		runPP(corpus, *method, *bits, *steps, *seed, every)
	default:
		fmt.Fprintln(os.Stderr, "trainsim: -mode must be dp or pp")
		os.Exit(2)
	}
}

func report(curve []train.CurvePoint, every int, final float64, wire string) {
	for i, p := range curve {
		if (i+1)%every == 0 {
			fmt.Printf("step %4d  loss %.4f\n", p.Step, p.Loss)
		}
	}
	fmt.Printf("final validation perplexity: %.2f   (%s)\n", final, wire)
}

func runDP(corpus *data.Corpus, method string, bits float64, steps int, seed int64, every int) {
	spec := llm.Zoo()["pythia-dp"]
	m := nn.NewTransformer(rand.New(rand.NewSource(99)), spec.Cfg)
	adam := nn.NewAdam(3e-3)
	var opt nn.Optimizer = adam
	var compress train.GradCompressor
	var onStep func(int)
	switch method {
	case "none":
	case "llm265":
		compress = train.LLM265DP(core.DefaultOptions(), bits)
	case "rtn":
		compress = train.RTNDP(int(bits), 128)
	case "onebit-adam", "onebit-lamb":
		ob := baselines.NewOneBitCompressor(steps * 15 / 100)
		compress = train.OneBitDP(ob)
		freeze := &adam.FreezeVariance
		if method == "onebit-lamb" {
			lamb := nn.NewLAMB(2e-3)
			opt, freeze = lamb, &lamb.FreezeVariance
		}
		onStep = func(int) {
			ob.AdvanceStep()
			if !ob.InWarmup() {
				*freeze = true
			}
		}
	default:
		fmt.Fprintln(os.Stderr, "trainsim: unknown dp method", method)
		os.Exit(2)
	}
	res, err := train.RunDataParallelRing(context.Background(), m, corpus, opt, train.DPConfig{
		Replicas: 4, Batch: 4, Compress: compress,
	}, allreduce.Config{}, steps, seed, onStep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "trainsim:", err)
		os.Exit(1)
	}
	report(res.Curve, every, res.FinalPPL, fmt.Sprintf("%.2f wire bits/value", res.AvgBits))
}

func runPP(corpus *data.Corpus, method string, bits float64, steps int, seed int64, every int) {
	spec := llm.Zoo()["pythia-pp"]
	m := nn.NewTransformer(rand.New(rand.NewSource(99)), spec.Cfg)
	cfg := train.PipelineConfig{Stages: 4, MicroBatch: 4, AccumSteps: 2}
	switch method {
	case "none":
	case "act":
		cfg.CompressActivations = train.LLM265Transform(core.DefaultOptions(), bits)
	case "residual":
		cfg.CompressActivations = train.LLM265Transform(core.DefaultOptions(), bits)
		cfg.CompressActGrads = train.LLM265ResidualTransform(core.DefaultOptions(), bits, bits, steps*5/16)
	case "rtn-grads":
		cfg.CompressActivations = train.LLM265Transform(core.DefaultOptions(), bits)
		cfg.CompressActGrads = train.RTNTransform(8, 128)
	default:
		fmt.Fprintln(os.Stderr, "trainsim: unknown pp method", method)
		os.Exit(2)
	}
	res, err := train.RunPipeline(m, corpus, nn.NewAdam(3e-3), cfg, steps, seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "trainsim:", err)
		os.Exit(1)
	}
	report(res.Curve, every, res.FinalPPL,
		fmt.Sprintf("act %.2f b/v, act-grad %.2f b/v", res.ActBits, res.GradBits))
}
