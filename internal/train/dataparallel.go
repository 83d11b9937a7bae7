package train

import "repro/internal/nn"

// GradCompressor compresses one replica's gradient *bucket* — the flattened
// concatenation of all weight-matrix gradients, the unit real all-reduce
// implementations (NCCL buckets, DeepSpeed fusion buffers) operate on —
// returning what the reducer receives and the wire bits per value.
type GradCompressor func(replica int, bucket *nn.Mat) (*nn.Mat, float64, error)

// bucketCols is the width gradient buckets are reshaped to before
// compression; 128 keeps frames near-square for typical model sizes.
const bucketCols = 128

// DPConfig configures data-parallel training.
type DPConfig struct {
	Replicas int
	Batch    int // per-replica batch size

	// Compress is applied to each replica's gradient bucket (all weight
	// matrices ≥8×8, flattened). Small tensors (biases, LayerNorms) always
	// travel in FP16, matching how the gradient-compression literature
	// treats them.
	Compress GradCompressor

	EvalEvery   int
	EvalBatches int
}

// DPResult summarizes a data-parallel run.
type DPResult struct {
	Curve    []CurvePoint
	FinalPPL float64
	AvgBits  float64 // average wire bits per value across bucketed gradients
}

// isMatrixGrad reports whether a parameter's gradient joins the compression
// bucket (≥8×8, 2-D).
func isMatrixGrad(p *nn.Param) bool {
	return p.G.R >= 8 && p.G.C >= 8
}

// emaUpdate advances the loss EMA, seeding it from the first step's loss.
// Seeding on step==0 (not on ema==0) matters: a training run whose loss
// legitimately crosses zero — or whose first step happens to be exactly
// zero — must not re-seed the average forever after.
func emaUpdate(step int, ema, loss float64) float64 {
	if step == 0 {
		return loss
	}
	return 0.9*ema + 0.1*loss
}

// bucketBuffer owns the reusable gradient bucket: the flattened
// concatenation of every ≥8×8 weight-matrix gradient, reshaped to
// bucketCols wide. gather and scatter are allocation-free in steady state.
type bucketBuffer struct {
	mat      *nn.Mat
	bucketed []*nn.Param
	total    int // live values; mat.V[total:] is zero padding
}

func newBucketBuffer(params []*nn.Param) *bucketBuffer {
	bb := &bucketBuffer{}
	for _, p := range params {
		if isMatrixGrad(p) {
			bb.bucketed = append(bb.bucketed, p)
			bb.total += len(p.G.V)
		}
	}
	rows := (bb.total + bucketCols - 1) / bucketCols
	bb.mat = nn.NewMat(maxInt(rows, 1), bucketCols)
	return bb
}

// gather fills the bucket from the current gradients and returns it. The
// padding tail is re-zeroed in case a caller handed the bucket itself back
// through scatter.
func (bb *bucketBuffer) gather() *nn.Mat {
	off := 0
	for _, p := range bb.bucketed {
		copy(bb.mat.V[off:], p.G.V)
		off += len(p.G.V)
	}
	for i := bb.total; i < len(bb.mat.V); i++ {
		bb.mat.V[i] = 0
	}
	return bb.mat
}

// scatter copies a (possibly compressed) bucket back into the gradients.
func (bb *bucketBuffer) scatter(bucket *nn.Mat) {
	off := 0
	for _, p := range bb.bucketed {
		copy(p.G.V, bucket.V[off:off+len(p.G.V)])
		off += len(p.G.V)
	}
}
