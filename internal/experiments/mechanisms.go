package experiments

import (
	"context"
	"fmt"
	"math"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/dct"
	"repro/internal/frame"
	"repro/internal/intra"
	"repro/internal/quant"
	"repro/internal/tensorgen"
)

// keyProjectionStack synthesizes the paper's Fig. 2 tensor: a stack of
// Key-Projection-like weight matrices with LLaMA-style channel structure
// (per-channel means/scales, outlier columns) and weak inter-layer
// correlation, the layer index serving as the temporal axis. A generated
// stack is used (rather than the substrate model's weights) because the
// tiny trained model has not developed the channel structure of a 7B
// checkpoint — the structure, not the training provenance, is what Fig. 2
// studies (DESIGN.md §2).
func keyProjectionStack(ctx *Ctx) []*core.Tensor {
	rng := newRng(2)
	size := 192
	if ctx.Quick {
		size = 96
	}
	raw := tensorgen.WeightStack(rng, 4, size, size, 0.05)
	stack := make([]*core.Tensor, len(raw))
	for i, d := range raw {
		stack[i] = core.FromSlice(size, size, d)
	}
	return stack
}

// Fig2 reproduces the pipeline-stage ablation: stages are enabled
// incrementally and each configuration is driven to the same quality
// (MSE ≤ 1% of the tensor's variance, the analog of the paper's MSE < 0.01
// on LLaMA-scale weights), reporting the bits per value needed.
func Fig2(ctx *Ctx) *Table {
	stack := keyProjectionStack(ctx)
	var variance float64
	var n int
	for _, t := range stack {
		for _, v := range t.Data {
			variance += float64(v) * float64(v)
			n++
		}
	}
	variance /= float64(n)
	budget := 0.01 * variance

	type stage struct {
		name  string
		tools codec.Tools
		raw   bool // stage 1: plain 8-bit RTN, no codec
	}
	stages := []stage{
		{name: "(1) 8-bit quantization", raw: true},
		{name: "(2) + entropy coding (CABAC)", tools: codec.Tools{CABAC: true}},
		{name: "(3) + DCT transform", tools: codec.Tools{CABAC: true, Transform: true}},
		{name: "(4) + CTU partitioning", tools: codec.Tools{CABAC: true, Transform: true, Partitioning: true}},
		{name: "(5) + intra prediction", tools: codec.AllTools},
		{name: "(6) + inter prediction", tools: codec.Tools{CABAC: true, Partitioning: true, Transform: true, IntraPred: true, InterPred: true}},
	}

	t := &Table{
		ID:      "fig2",
		Title:   "Pipeline ablation on Key-Projection weights (quality: MSE ≤ 1% of Var)",
		Columns: []string{"stage", "bits/value", "MSE/Var"},
	}
	for _, s := range stages {
		var bits, relMSE float64
		if s.raw {
			// Per-tensor 8-bit RTN: by construction 8 bits/value.
			bits = 8
			var sse float64
			for _, w := range stack {
				rec := quant.RTNAsymmetric(w.Data, 8)
				sse += quant.MSE(w.Data, rec)
			}
			relMSE = sse / float64(len(stack)) / variance
		} else {
			o := core.DefaultOptions()
			o.Tools = s.tools
			e, mse, err := o.EncodeStackToMSE(stack, budget)
			if err != nil {
				panic(err)
			}
			bits = e.BitsPerValue()
			relMSE = mse / variance
		}
		t.AddRow(s.name, fmt.Sprintf("%.3f", bits), fmt.Sprintf("%.4f", relMSE))
	}
	t.Notes = append(t.Notes,
		"paper: 8.0 -> 2.6 bits across stages (1)-(5); inter prediction (6) increases bits",
		"quality constraint is relative (MSE <= 1% of tensor variance) because substrate weight scales differ from LLaMA's")
	return t
}

// Fig3 reproduces the DCT de-outliering statistics: a normal distribution
// with injected outliers is transformed block-wise; outlier diagnostics
// collapse in the coefficient domain. The 128-outlier example is included.
func Fig3(ctx *Ctx) *Table {
	rng := newRng(3)
	n := 32
	blocks := 64
	if ctx.Quick {
		blocks = 16
	}
	var inVals, outVals []float64
	for b := 0; b < blocks; b++ {
		v := tensorgen.NormalWithOutliers(rng, n*n, 1, 0.01, 30)
		spatial := make([]float64, n*n)
		for i, x := range v {
			spatial[i] = float64(x)
		}
		coef := dct.ForwardFloat(spatial, n)
		inVals = append(inVals, spatial...)
		outVals = append(outVals, coef...)
	}
	t := &Table{
		ID:      "fig3",
		Title:   "Transform coding amortizes outliers (32x32 blocks, N(0,1) + 1% outliers at ±30)",
		Columns: []string{"domain", "kurtosis", "peak/sigma"},
	}
	t.AddRow("spatial (input)", f2(tensorgen.Kurtosis(inVals)), f2(tensorgen.PeakToSigma(inVals)))
	t.AddRow("DCT coefficients", f2(tensorgen.Kurtosis(outVals)), f2(tensorgen.PeakToSigma(outVals)))

	// (c)->(d): the single-outlier example with value 128.
	ex := make([]float64, 8*8)
	ex[3*8+3] = 128
	coef := dct.ForwardFloat(ex, 8)
	var peak float64
	for _, c := range coef {
		if math.Abs(c) > peak {
			peak = math.Abs(c)
		}
	}
	t.AddRow("example: impulse 128 (8x8)", "-", fmt.Sprintf("peak coef %.1f", peak))
	t.Notes = append(t.Notes, "paper Fig. 3: output contains no outliers; the 128 outlier is spread across the block")
	return t
}

// Fig4 walks one weight block through the intra pipeline: mode choice,
// prediction quality, and the sparsity of the quantized coefficients.
func Fig4(ctx *Ctx) *Table {
	w := keyProjectionStack(ctx)[1]
	pix, _, _ := quant.ToUint8(w.Data)
	n := 32
	// Take the top-left 32×32 block with its neighbours as references.
	block := make([]int32, n*n)
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			block[y*n+x] = int32(pix[(y+1)*w.Cols+x+1])
		}
	}
	refs := intra.NewRefs(n)
	for i := 0; i < 2*n && i+1 < w.Cols; i++ {
		refs.Above[i] = int32(pix[0*w.Cols+i+1])
	}
	for i := 0; i < 2*n && i+1 < w.Rows; i++ {
		refs.Left[i] = int32(pix[(i+1)*w.Cols])
	}
	refs.Corner = int32(pix[0])

	blockEnergy := energyInt32(block)
	bestMode, bestEnergy := intra.Mode(0), math.Inf(1)
	pred := make([]int32, n*n)
	for _, mode := range intra.HEVCModes {
		intra.Predict(mode, n, refs, pred)
		res := make([]int32, n*n)
		for i := range res {
			res[i] = block[i] - pred[i]
		}
		if e := energyInt32(res); e < bestEnergy {
			bestMode, bestEnergy = mode, e
		}
	}
	intra.Predict(bestMode, n, refs, pred)
	res := make([]int32, n*n)
	for i := range res {
		res[i] = block[i] - pred[i]
	}
	tr := dct.NewDCT(n)
	coef := make([]int32, n*n)
	tr.Forward(coef, res)
	dct.Quantize(coef, coef, 30)
	zeros := 0
	for _, c := range coef {
		if c == 0 {
			zeros++
		}
	}

	t := &Table{
		ID:      "fig4",
		Title:   "Intra prediction on a 32x32 weight block (paper Fig. 4)",
		Columns: []string{"quantity", "value"},
	}
	t.AddRow("best intra mode", fmt.Sprintf("%d", bestMode))
	t.AddRow("block energy", f(blockEnergy))
	t.AddRow("residual energy", f(bestEnergy))
	t.AddRow("residual/block energy", f2(bestEnergy/blockEnergy))
	t.AddRow("zero coefficients after DCT+Q(qp30)", fmt.Sprintf("%d/%d (%.0f%%)", zeros, n*n, 100*float64(zeros)/float64(n*n)))
	t.Notes = append(t.Notes, "paper: prediction captures channel structure; residual is small and codes to sparse coefficients")
	return t
}

func energyInt32(v []int32) float64 {
	var mean float64
	for _, x := range v {
		mean += float64(x)
	}
	mean /= float64(len(v))
	var s float64
	for _, x := range v {
		d := float64(x) - mean
		s += d * d
	}
	return s
}

// Throughput measures the software codec's encode/decode rate and reports
// the modeled hardware engine numbers (§6.1).
func Throughput(ctx *Ctx) *Table {
	rng := newRng(18)
	size := 512
	if ctx.Quick {
		size = 192
	}
	w := core.FromSlice(size, size, tensorgen.Weights(rng, size, size))
	o := core.DefaultOptions()

	pix, _, _ := quant.ToUint8(w.Data)
	planes := frame.FromMatrix(pix, size, size, 1024, 1024)

	encStart := nowSeconds()
	stream, _, err := codec.Encoder{Profile: o.Profile, Tools: o.Tools}.Encode(context.TODO(), planes, 26)
	if err != nil {
		panic(err)
	}
	encSec := nowSeconds() - encStart
	decStart := nowSeconds()
	if _, err := (codec.Decoder{}).Decode(context.TODO(), stream); err != nil {
		panic(err)
	}
	decSec := nowSeconds() - decStart

	mb := float64(size*size) / 1e6
	t := &Table{
		ID:      "throughput",
		Title:   "Tensor codec throughput (software substrate vs modeled NVENC/NVDEC)",
		Columns: []string{"engine", "encode MB/s", "decode MB/s"},
	}
	t.AddRow("pure-Go software codec", f2(mb/encSec), f2(mb/decSec))
	t.AddRow("NVENC/NVDEC (modeled, paper §6.1)", "1100", "1300")
	t.Notes = append(t.Notes, "the hardware numbers are the paper's measurements; the software codec substitutes for the engines functionally, not in speed")
	return t
}
