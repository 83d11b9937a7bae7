package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/allreduce"
	"repro/internal/cabac"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dct"
	"repro/internal/frame"
	"repro/internal/intra"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/quant"
	"repro/internal/rans"
	"repro/internal/tensorgen"
)

// The isolated passes of a traced run: each layer's public functions timed
// alone, on the workload's own inputs, after the in-place phases so they
// never disturb them.

// sampleStack is one representative input of a workload.
type sampleStack struct {
	stack   []*core.Tensor
	qp      int
	backend codec.EntropyBackend
}

// kernelMinTime is how long each kernel is timed for.
const kernelMinTime = 30 * time.Millisecond

// nsPerCall repeats fn (which makes calls kernel calls) for at least
// kernelMinTime and reports nanoseconds per kernel call.
func nsPerCall(calls int, fn func()) float64 {
	start := time.Now()
	n := 0
	for time.Since(start) < kernelMinTime || n == 0 {
		fn()
		n++
	}
	return float64(time.Since(start)) / float64(n*calls)
}

// trainCfg is the `llm265 bench -train` model.
var trainCfg = nn.Config{Vocab: 32, Dim: 16, Heads: 2, Layers: 4, SeqLen: 16, Hidden: 32}

const (
	trainReplicas = 2
	trainBatch    = 4
	trainQP       = 28
)

// bucketGeometry is the training ring's bucket: every matrix gradient
// (both sides ≥ 8) packed row-major into 128-wide rows, as train does.
func bucketGeometry() (rows, cols int) {
	m := nn.NewTransformer(rand.New(rand.NewSource(99)), trainCfg)
	total := 0
	for _, p := range m.Params() {
		if p.G.R >= 8 && p.G.C >= 8 {
			total += len(p.G.V)
		}
	}
	const bucketCols = 128
	return (total + bucketCols - 1) / bucketCols, bucketCols
}

func isolatedPasses(samples []sampleStack, seed int64) (map[string]float64, error) {
	out := map[string]float64{}
	if err := corePass(out, samples); err != nil {
		return nil, err
	}
	if err := codecPass(out, samples); err != nil {
		return nil, err
	}
	if err := kernelPass(out, samples[0], seed); err != nil {
		return nil, err
	}
	if err := allreducePass(out, seed); err != nil {
		return nil, err
	}
	nnPass(out, seed)
	return out, nil
}

// corePass times Options.EncodeStack/DecodeStack at production defaults
// and the 8-bit affine quantizer, and reads the pools' busy fractions.
func corePass(out map[string]float64, samples []sampleStack) error {
	reg := obs.NewRegistry()
	var encMs, decMs []float64
	var toNs, fromNs, vals float64
	for _, s := range samples {
		o := core.DefaultOptions()
		o.Backend = s.backend
		o.Metrics = reg
		t0 := time.Now()
		enc, err := o.EncodeStack(s.stack, s.qp)
		if err != nil {
			return fmt.Errorf("isolated encode: %w", err)
		}
		encMs = append(encMs, float64(time.Since(t0))/1e6)
		t1 := time.Now()
		if _, err := o.DecodeStack(enc); err != nil {
			return fmt.Errorf("isolated decode: %w", err)
		}
		decMs = append(decMs, float64(time.Since(t1))/1e6)
		for _, t := range s.stack {
			var pix []uint8
			var scale, zero float32
			n := float64(len(t.Data))
			toNs += nsPerCall(1, func() { pix, scale, zero = quant.ToUint8(t.Data) })
			fromNs += nsPerCall(1, func() { quant.FromUint8(pix, scale, zero) })
			vals += n
		}
	}
	out["core.encode_stack_ms"] = mean(encMs)
	out["core.decode_stack_ms"] = mean(decMs)
	out["quant.to_uint8_ns_per_val"] = toNs / vals
	out["quant.from_uint8_ns_per_val"] = fromNs / vals
	for _, dir := range []string{"encode", "decode"} {
		if wall := reg.Counter("codec." + dir + ".pool.wall_ns").Value(); wall > 0 {
			out["codec."+dir+".pool_busy_frac"] = float64(reg.Counter("codec."+dir+".pool.busy_ns").Value()) / float64(wall)
		}
	}
	if calls := reg.Counter("codec.decode.calls").Value(); calls > 0 {
		out["codec.decode.chunks_per_call"] = float64(reg.Counter("codec.decode.chunks").Value()) / float64(calls)
	}
	return nil
}

// planesOf quantizes a stack to the codec's 8-bit planes, as core does.
func planesOf(s sampleStack) []*frame.Plane {
	var planes []*frame.Plane
	for _, t := range s.stack {
		pix, _, _ := quant.ToUint8(t.Data)
		planes = append(planes, frame.FromMatrix(pix, t.Rows, t.Cols, 1024, 1024)...)
	}
	return planes
}

// codecPass times the codec engine with one worker on the samples' planes
// and splits encode time by stage.
func codecPass(out map[string]float64, samples []sampleStack) error {
	reg := obs.NewRegistry()
	var encMs, decMs []float64
	for _, s := range samples {
		planes := planesOf(s)
		tools := codec.AllTools
		tools.Backend = s.backend
		t0 := time.Now()
		data, _, err := codec.EncodeParallelObs(planes, s.qp, codec.HEVC, tools, 1, reg)
		if err != nil {
			return fmt.Errorf("isolated codec encode: %w", err)
		}
		encMs = append(encMs, float64(time.Since(t0))/1e6)
		t1 := time.Now()
		if _, err := codec.DecodeWorkersObs(data, 1, reg); err != nil {
			return fmt.Errorf("isolated codec decode: %w", err)
		}
		decMs = append(decMs, float64(time.Since(t1))/1e6)
	}
	out["codec.encode_ms"] = mean(encMs)
	out["codec.decode_ms"] = mean(decMs)
	stages := []string{"intra_search", "transform_quant", "entropy", "partition"}
	sums := map[string]float64{}
	var total float64
	for _, st := range stages {
		sums[st] = float64(reg.Histogram("codec.encode.stage." + st + "_ns").Stats().Sum)
		total += sums[st]
	}
	for _, st := range stages {
		out["codec.encode."+st+"_share"] = sums[st] / total
	}
	return nil
}

// kernelPass times the transform, prediction and entropy kernels per call
// on blocks sampled from the first sample's quantized plane.
func kernelPass(out map[string]float64, s sampleStack, seed int64) error {
	t := s.stack[0]
	pix, _, _ := quant.ToUint8(t.Data)
	rows, cols := t.Rows, t.Cols
	at := func(y, x int) int32 { return int32(pix[y*cols+x]) }
	rng := rand.New(rand.NewSource(seed))

	// Residual blocks: each block minus the row above it (vertical
	// prediction), at random positions.
	block := func(n int) []int32 {
		y := 1 + rng.Intn(rows-n)
		x := rng.Intn(cols - n + 1)
		res := make([]int32, n*n)
		for r := 0; r < n; r++ {
			for c := 0; c < n; c++ {
				res[r*n+c] = at(y+r, x+c) - at(y-1, x+c)
			}
		}
		return res
	}
	const nBlocks = 32
	var res8, res32 [][]int32
	for i := 0; i < nBlocks; i++ {
		res8 = append(res8, block(8))
		res32 = append(res32, block(32))
	}
	t8, t32 := dct.NewDCT(8), dct.NewDCT(32)
	coef8 := make([][]int32, nBlocks)
	coef32 := make([][]int32, nBlocks)
	lv8 := make([][]int32, nBlocks)
	for i := range coef8 {
		coef8[i] = make([]int32, 64)
		coef32[i] = make([]int32, 1024)
		lv8[i] = make([]int32, 64)
	}
	tmp8, tmp32 := make([]int32, 64), make([]int32, 1024)
	out["dct.forward8_ns"] = nsPerCall(nBlocks, func() {
		for i, b := range res8 {
			t8.Forward(coef8[i], b)
		}
	})
	out["dct.forward32_ns"] = nsPerCall(nBlocks, func() {
		for i, b := range res32 {
			t32.Forward(coef32[i], b)
		}
	})
	out["dct.quantize32_ns"] = nsPerCall(nBlocks, func() {
		for _, c := range coef32 {
			dct.Quantize(tmp32, c, s.qp)
		}
	})
	for i, c := range coef8 {
		dct.Quantize(lv8[i], c, s.qp)
		dct.Dequantize(coef8[i], lv8[i], s.qp)
	}
	for _, c := range coef32 {
		dct.Quantize(tmp32, c, s.qp)
		dct.Dequantize(c, tmp32, s.qp)
	}
	out["dct.inverse8_ns"] = nsPerCall(nBlocks, func() {
		for _, c := range coef8 {
			t8.Inverse(tmp8, c)
		}
	})
	out["dct.inverse32_ns"] = nsPerCall(nBlocks, func() {
		for _, c := range coef32 {
			t32.Inverse(tmp32, c)
		}
	})
	out["dct.satd8_ns"] = nsPerCall(nBlocks, func() {
		for _, b := range res8 {
			dct.SATD(b, 8)
		}
	})

	// Intra prediction: 16×16 blocks with references from the plane.
	const n = 16
	var refs []intra.Refs
	for i := 0; i < 8; i++ {
		y := 1 + rng.Intn(rows-2*n)
		x := 1 + rng.Intn(cols-2*n)
		r := intra.NewRefs(n)
		r.Corner = at(y-1, x-1)
		for k := 0; k < 2*n; k++ {
			r.Above[k] = at(y-1, x+k)
			r.Left[k] = at(y+k, x-1)
		}
		refs = append(refs, r)
	}
	dst := make([]int32, n*n)
	out["intra.predict16_ns"] = nsPerCall(len(refs)*intra.NumModes, func() {
		for _, r := range refs {
			for m := 0; m < intra.NumModes; m++ {
				intra.Predict(intra.Mode(m), n, r, dst)
			}
		}
	})

	// Entropy bins: the significance flags of the quantized 8×8 levels,
	// one context per scan position class.
	var bins []int
	var ctxOf []int
	for _, lv := range lv8 {
		for k, v := range lv {
			b := 0
			if v != 0 {
				b = 1
			}
			bins = append(bins, b)
			ctxOf = append(ctxOf, min(k, 15))
		}
	}
	return entropyPass(out, bins, ctxOf)
}

func entropyPass(out map[string]float64, bins, ctxOf []int) error {
	newCtxs := func() []cabac.Context {
		c := make([]cabac.Context, 16)
		for i := range c {
			c[i].Init()
		}
		return c
	}
	var stream []byte
	out["cabac.encode_bin_ns"] = nsPerCall(len(bins), func() {
		enc := cabac.NewEncoder()
		ctx := newCtxs()
		for i, b := range bins {
			enc.EncodeBit(&ctx[ctxOf[i]], b)
		}
		stream = enc.Finish()
	})
	var cabacErr error
	out["cabac.decode_bin_ns"] = nsPerCall(len(bins), func() {
		dec := cabac.NewDecoder(stream)
		ctx := newCtxs()
		for i, b := range bins {
			if dec.DecodeBit(&ctx[ctxOf[i]]) != b && cabacErr == nil {
				cabacErr = checkf("cabac kernel decoded bin %d wrong", i)
			}
		}
	})
	if cabacErr != nil {
		return cabacErr
	}

	// rANS codes the same bins against static per-context frequencies.
	var zeros, ones [16]int64
	for i, b := range bins {
		if b == 0 {
			zeros[ctxOf[i]]++
		} else {
			ones[ctxOf[i]]++
		}
	}
	var f0 [16]uint32
	for c := range f0 {
		f0[c] = rans.ProbToFreq(rans.QuantizeProb0(zeros[c], ones[c]))
	}
	var enc rans.BinEncoder
	var seg []byte
	out["rans.encode_bin_ns"] = nsPerCall(len(bins), func() {
		enc.Reset()
		for i := len(bins) - 1; i >= 0; i-- {
			enc.Put(bins[i], f0[ctxOf[i]])
		}
		seg = append(seg[:0], enc.Finish()...)
	})
	var ransErr error
	out["rans.decode_bin_ns"] = nsPerCall(len(bins), func() {
		var dec rans.BinDecoder
		if err := dec.Init(seg); err != nil {
			ransErr = err
			return
		}
		for i, b := range bins {
			got, err := dec.Get(f0[ctxOf[i]])
			if (err != nil || got != b) && ransErr == nil {
				ransErr = checkf("rans kernel decoded bin %d wrong (%v)", i, err)
			}
		}
		if err := dec.Close(); err != nil && ransErr == nil {
			ransErr = err
		}
	})
	return ransErr
}

// allreducePass times Ring.Allreduce on the training geometry with
// tensorgen.Gradients input and reads the allreduce.* histograms.
func allreducePass(out map[string]float64, seed int64) error {
	rows, cols := bucketGeometry()
	reg := obs.NewRegistry()
	ring, err := allreduce.New(allreduce.Config{
		Workers: trainReplicas, Rows: rows, Cols: cols,
		Codec:         allreduce.TensorCodec(core.DefaultOptions(), trainQP),
		ErrorFeedback: true, Metrics: reg,
	})
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	in := make([][]float32, trainReplicas)
	for w := range in {
		in[w] = tensorgen.Gradients(rng, rows*cols, 2)
	}
	outBuf := make([][]float32, trainReplicas)
	for w := range outBuf {
		outBuf[w] = make([]float32, rows*cols)
	}
	const calls = 4
	var ms []float64
	var bits int64
	for i := 0; i < calls; i++ {
		t0 := time.Now()
		st, err := ring.Allreduce(context.Background(), in, outBuf)
		if err != nil {
			return fmt.Errorf("isolated allreduce: %w", err)
		}
		ms = append(ms, float64(time.Since(t0))/1e6)
		bits += st.WireBits
		ring.AdvanceStep()
	}
	out["allreduce.call_ms"] = mean(ms)
	allreduceShares(out, reg)
	out["allreduce.wire_bits_per_step"] = float64(bits) / calls
	return nil
}

// allreduceShares splits the ring's summed per-worker time into encode and
// receive-wait shares.
func allreduceShares(out map[string]float64, reg *obs.Registry) {
	sum := func(n string) float64 { return float64(reg.Histogram(n).Stats().Sum) }
	enc, dec := sum("allreduce.segment.encode_ns"), sum("allreduce.segment.decode_ns")
	red, wait := sum("allreduce.segment.reduce_ns"), sum("allreduce.recv.wait_ns")
	if total := enc + dec + red + wait; total > 0 {
		out["allreduce.encode_share"] = enc / total
		out["allreduce.recv_wait_share"] = wait / total
	}
}

// nnPass times Transformer.TrainStep on one replica batch.
func nnPass(out map[string]float64, seed int64) {
	m := nn.NewTransformer(rand.New(rand.NewSource(99)), trainCfg)
	corpus := data.NewCorpus(1, trainCfg.Vocab, 20000, 4000)
	rng := rand.New(rand.NewSource(seed))
	var ms []float64
	for i := 0; i < 8; i++ {
		tokens, targets := corpus.Batch(rng, trainBatch, trainCfg.SeqLen)
		m.ZeroGrads()
		t0 := time.Now()
		m.TrainStep(tokens, targets)
		ms = append(ms, float64(time.Since(t0))/1e6)
	}
	out["nn.train_step_ms"] = median(ms)
}
