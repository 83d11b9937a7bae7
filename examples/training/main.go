// Training example: data-parallel training with LLM.265 gradient
// compression at 2.6 bits per value, compared against uncompressed training
// and the 1-bit Adam baseline — the paper's §5.2 setting.
//
//	go run ./examples/training
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"repro/internal/allreduce"
	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/llm"
	"repro/internal/nn"
	"repro/internal/train"
)

func main() {
	corpus := data.NewCorpus(1, 64, 60000, 10000)
	spec := llm.Zoo()["pythia-dp"]
	steps := 300

	run := func(label string, compress train.GradCompressor,
		opt nn.Optimizer, onStep func(int)) {
		m := nn.NewTransformer(rand.New(rand.NewSource(99)), spec.Cfg)
		res, err := train.RunDataParallelRing(context.Background(), m, corpus, opt, train.DPConfig{
			Replicas: 4, Batch: 4, Compress: compress, EvalBatches: 4,
		}, allreduce.Config{}, steps, 7, onStep)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-24s wire %5.2f bits/value   final loss %.3f   val ppl %6.2f\n",
			label, res.AvgBits, res.Curve[len(res.Curve)-1].Loss, res.FinalPPL)
	}

	fmt.Printf("data-parallel training: 4 replicas, %d steps\n\n", steps)
	run("uncompressed:", nil, nn.NewAdam(3e-3), nil)
	run("LLM.265 @ 2.6 b/v:", train.LLM265DP(core.DefaultOptions(), 2.6), nn.NewAdam(3e-3), nil)
	run("LLM.265 @ 1.4 b/v:", train.LLM265DP(core.DefaultOptions(), 1.4), nn.NewAdam(3e-3), nil)

	ob := baselines.NewOneBitCompressor(steps * 15 / 100)
	adam := nn.NewAdam(3e-3)
	run("1-bit Adam:", train.OneBitDP(ob), adam, func(int) {
		ob.AdvanceStep()
		if !ob.InWarmup() {
			adam.FreezeVariance = true
		}
	})

	fmt.Println("\nLLM.265 needs no warm-up phase and no optimizer modification —")
	fmt.Println("compression starts at step 0 with a plain Adam (§5.2).")
}
