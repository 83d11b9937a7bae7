package train

import (
	"math/rand"

	"repro/internal/data"
	"repro/internal/nn"
)

// runSequential is the sequential data-parallel loop, kept as the oracle
// RunDataParallelRing is checked against: the replicas' gradients are
// summed in replica order on one goroutine, with no collective at all. The
// TestRingTwin* matrix requires the ring to reproduce it bit for bit.
func runSequential(m *nn.Transformer, corpus *data.Corpus, opt nn.Optimizer,
	cfg DPConfig, steps int, seed int64, onStep func(step int)) (*DPResult, error) {

	rng := rand.New(rand.NewSource(seed))
	res := &DPResult{}
	params := m.Params()
	var bitsSum, valsSum float64
	lossEMA := 0.0

	// The bucket buffer is hoisted out of the step loop: gather/scatter
	// reuse one bucketRows×bucketCols Mat for the whole run instead of
	// allocating it per replica per step (pinned by an AllocsPerRun test).
	bb := newBucketBuffer(params)
	total := bb.total

	sum := make([]*nn.Mat, len(params))
	for i, p := range params {
		sum[i] = nn.NewMat(p.G.R, p.G.C)
	}

	for step := 0; step < steps; step++ {
		for i := range sum {
			sum[i].Zero()
		}
		var stepLoss float64
		for r := 0; r < cfg.Replicas; r++ {
			tokens, targets := corpus.Batch(rng, cfg.Batch, m.Cfg.SeqLen)
			m.ZeroGrads()
			stepLoss += m.TrainStep(tokens, targets) / float64(cfg.Replicas)

			if cfg.Compress != nil {
				cb, bits, err := cfg.Compress(r, bb.gather())
				if err != nil {
					return nil, err
				}
				bb.scatter(cb)
				bitsSum += bits * float64(total)
				valsSum += float64(total)
			} else {
				bitsSum += 16 * float64(total)
				valsSum += float64(total)
			}
			for i, p := range params {
				nn.AddInPlace(sum[i], p.G)
			}
		}
		for i, p := range params {
			copy(p.G.V, sum[i].V)
			nn.ScaleInPlace(p.G, 1/float32(cfg.Replicas))
		}
		opt.Step(params)
		if onStep != nil {
			onStep(step)
		}

		lossEMA = emaUpdate(step, lossEMA, stepLoss)
		pt := CurvePoint{Step: step, Loss: lossEMA}
		if cfg.EvalEvery > 0 && (step+1)%cfg.EvalEvery == 0 {
			toks, tgts := corpus.ValidBatches(cfg.EvalBatches, 4, m.Cfg.SeqLen)
			pt.PPL = m.Perplexity(toks, tgts)
		}
		res.Curve = append(res.Curve, pt)
	}
	toks, tgts := corpus.ValidBatches(maxInt(cfg.EvalBatches, 4), 4, m.Cfg.SeqLen)
	res.FinalPPL = m.Perplexity(toks, tgts)
	if valsSum > 0 {
		res.AvgBits = bitsSum / valsSum
	}
	return res, nil
}
