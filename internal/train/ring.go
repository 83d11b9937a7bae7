package train

import (
	"context"
	"errors"
	"math/rand"

	"repro/internal/allreduce"
	"repro/internal/data"
	"repro/internal/nn"
)

// RingDPResult extends DPResult with the concurrent collective's wire
// telemetry, which the cluster model consumes to project wall-clock at
// scale (cluster.MeasuredCodec).
type RingDPResult struct {
	DPResult
	// WireBits is the total accounted bits that traveled the ring.
	WireBits int64
	// EncodeMBps is the measured segment-encode throughput in MB/s of
	// float32 input (summed worker CPU time, so it is per-core throughput).
	EncodeMBps float64
	// ResidualL2 is the final step's summed error-feedback residual energy.
	ResidualL2 float64

	encBytes, encNs float64 // throughput accumulators
}

// RunDataParallelRing trains with cfg.Replicas simulated workers: each
// computes gradients on its own batch, and the mean of the (optionally
// compressed) gradients drives the shared optimizer — synchronous data
// parallelism with lossy all-reduce. The bucket reduction runs on a live
// allreduce.Ring: N goroutine workers exchanging codec-compressed segments
// over in-process channels. onStep (optional) fires after every optimizer
// step, which is where warm-up-based baselines advance state.
//
// Two mutually exclusive compression seams exist:
//   - cfg.Compress (the GradCompressor): applied serially per replica
//     before the ring, which then runs lossless. Results are bit-identical
//     to the sequential oracle loop in the package tests with the same
//     compressor, because stateful compressors (rate controllers, warmup
//     steppers) see replicas in the same order.
//   - rcfg.Codec (a wire codec): compression happens inside the collective,
//     on live segment traffic, with optional error feedback. This is the
//     real-system path the tentpole asks for.
//
// With neither set the ring runs the raw codec and the whole function is
// bit-identical to the sequential oracle uncompressed (the property matrix
// pins this). rcfg.Workers/Rows/Cols are derived from cfg and the model;
// setting them is an error.
func RunDataParallelRing(ctx context.Context, m *nn.Transformer, corpus *data.Corpus,
	opt nn.Optimizer, cfg DPConfig, rcfg allreduce.Config, steps int, seed int64,
	onStep func(step int)) (*RingDPResult, error) {

	if cfg.Compress != nil && rcfg.Codec != nil {
		return nil, errors.New("train: cfg.Compress and rcfg.Codec are mutually exclusive seams")
	}
	if rcfg.Workers != 0 || rcfg.Rows != 0 || rcfg.Cols != 0 {
		return nil, errors.New("train: ring geometry is derived from DPConfig and the model; leave Workers/Rows/Cols zero")
	}
	wireCompressed := rcfg.Codec != nil
	if rcfg.Codec == nil {
		rcfg.Codec = allreduce.RawCodec()
	}

	rng := rand.New(rand.NewSource(seed))
	res := &RingDPResult{}
	params := m.Params()
	var bitsSum, valsSum float64
	lossEMA := 0.0

	bb := newBucketBuffer(params)
	total := bb.total

	rcfg.Workers = cfg.Replicas
	rcfg.Rows = bb.mat.R
	rcfg.Cols = bb.mat.C
	ring, err := allreduce.New(rcfg)
	if err != nil {
		return nil, err
	}

	// Per-replica ring buffers, allocated once. ringIn doubles as ringOut:
	// the collective documents that out may alias in.
	ringIn := make([][]float32, cfg.Replicas)
	for r := range ringIn {
		ringIn[r] = make([]float32, len(bb.mat.V))
	}

	// Small (non-bucketed) parameters still reduce serially in replica
	// order, exactly like the sequential loop — the literature ships them
	// uncompressed, and they are a rounding error of the traffic.
	sum := make([]*nn.Mat, len(params))
	for i, p := range params {
		sum[i] = nn.NewMat(p.G.R, p.G.C)
	}

	for step := 0; step < steps; step++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
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
			}
			copy(ringIn[r], bb.gather().V)
			for i, p := range params {
				if !isMatrixGrad(p) {
					nn.AddInPlace(sum[i], p.G)
				}
			}
		}

		stats, err := ring.Allreduce(ctx, ringIn, ringIn)
		if err != nil {
			return nil, err
		}
		res.WireBits += stats.WireBits
		res.ResidualL2 = stats.ResidualL2
		if stats.EncodeNs > 0 {
			// Running estimate over the whole run: float32 bytes in per
			// summed encode nanosecond.
			res.encBytes += 4 * float64(stats.Values)
			res.encNs += float64(stats.EncodeNs)
		}
		if wireCompressed && stats.Values > 0 {
			bitsSum += float64(stats.WireBits)
			valsSum += float64(stats.Values)
		} else if !wireCompressed && cfg.Compress == nil {
			bitsSum += 16 * float64(total) * float64(cfg.Replicas)
			valsSum += float64(total) * float64(cfg.Replicas)
		}

		// Every worker holds the identical reduced bucket; adopt worker 0's.
		bb.scatterSum(ringIn[0])
		for i, p := range params {
			if !isMatrixGrad(p) {
				copy(p.G.V, sum[i].V)
			}
			nn.ScaleInPlace(p.G, 1/float32(cfg.Replicas))
		}
		opt.Step(params)
		ring.AdvanceStep()
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
	if res.encNs > 0 {
		res.EncodeMBps = res.encBytes / res.encNs * 1e9 / 1e6
	}
	return res, nil
}

// scatterSum writes a reduced (summed) flat bucket back into the bucketed
// parameters' gradients.
func (bb *bucketBuffer) scatterSum(flat []float32) {
	off := 0
	for _, p := range bb.bucketed {
		copy(p.G.V, flat[off:off+len(p.G.V)])
		off += len(p.G.V)
	}
}
