package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/dct"
	"repro/internal/tensorgen"
)

// Inputs are generated from (seed, index), so the same seed always yields
// the same inputs. The first calibCount requests of a workload draw from a
// fixed seed instead: bits_per_value and value_mse are computed over that
// fixed set, so they repeat exactly across seeds and runs.
const (
	calibSeed  = 1
	calibCount = 8
)

// rngFor derives the generator for input i of a run seeded with seed.
func rngFor(seed, i int64) *rand.Rand {
	if i < calibCount {
		seed = calibSeed
	}
	return rand.New(rand.NewSource(seed*1_000_003 + i*7919 + 17))
}

var weightQPs = [...]int{22, 26, 30, 34}

// weightCols is the column count of every weight stack.
const weightCols = 256

// weightInput is one weight-stack encode request.
type weightInput struct {
	stack   []*core.Tensor
	qp      int
	backend codec.EntropyBackend
}

func (w weightInput) values() int { return len(w.stack) * w.stack[0].Rows * w.stack[0].Cols }

// opts returns the core options a serve replica uses for this request
// (worker count and metrics aside; neither changes the bytes).
func (w weightInput) opts() core.Options {
	o := core.DefaultOptions()
	o.Backend = w.backend
	return o
}

// query is the /v1/encode query string for the request.
func (w weightInput) query() string {
	return fmt.Sprintf("/v1/encode?layers=%d&rows=%d&cols=%d&qp=%d&backend=%s",
		len(w.stack), w.stack[0].Rows, w.stack[0].Cols, w.qp, w.backend)
}

// body is the raw float32 LE request body.
func (w weightInput) body() []byte {
	out := make([]byte, 0, 4*w.values())
	for _, t := range w.stack {
		out = append(out, f32bytes(t.Data)...)
	}
	return out
}

// genWeights builds weight request i: a tensorgen.WeightStack stack of 1–4
// layers × 64–256 rows × 256 columns. The shape steps through all sixteen
// layer × row combinations every sixteen requests, the QP cycles over
// weightQPs every two requests and the backend alternates cabac/rans, so
// request i's shape, QP and backend depend only on i mod 16 (encRound).
// Only the values come from the seed, which keeps the work per request the
// same across seeds.
func genWeights(seed, i int64) weightInput {
	layers, rows := weightShape(i)
	return genStack(seed, i, layers, rows)
}

// weightShape is the layers × rows shape of weight request i.
func weightShape(i int64) (layers, rows int) {
	shape := int(i*5) % 16
	return 1 + shape%4, 64 * (1 + shape/4)
}

// weightShapeValues is the number of tensor values in weight request i.
func weightShapeValues(i int64) int {
	layers, rows := weightShape(i)
	return layers * rows * weightCols
}

// genStack builds input i as a layers × rows × 256 weight stack, with the
// QP and backend genWeights gives it.
func genStack(seed, i int64, layers, rows int) weightInput {
	raw := tensorgen.WeightStack(rngFor(seed, i), layers, rows, weightCols, 0.5)
	w := weightInput{qp: weightQPs[(i/2)%4], backend: codec.BackendCABAC}
	if i%2 == 1 {
		w.backend = codec.BackendRANS
	}
	for _, d := range raw {
		w.stack = append(w.stack, core.FromSlice(rows, weightCols, d))
	}
	return w
}

func f32bytes(v []float32) []byte {
	out := make([]byte, 4*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(x))
	}
	return out
}

func bytesF32(b []byte) []float32 {
	out := make([]float32, len(b)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

// sqErr is the summed squared difference of two equal-length slices.
func sqErr(a, b []float32) float64 {
	var s float64
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		s += d * d
	}
	return s
}

// mseBound is the largest value-domain MSE a layer may show at qp: the
// codec's uniform quantizer at step Qstep(qp) in the 8-bit pixel domain
// (error at most Qstep²/3 per pixel on average, rate-distortion decisions
// included) plus the 8-bit rounding itself, scaled back by the layer's
// affine scale.
func mseBound(scale float32, qp int) float64 {
	q := dct.Qstep(qp)
	s := float64(scale)
	return s * s * (q*q/3 + 0.25)
}

// checkStack compares a decoded stack against its source layer by layer,
// each at its QP's MSE bound for the container's per-layer scale, and
// returns the summed squared error.
func checkStack(enc *core.Encoded, src, dec []*core.Tensor) (sq float64, err error) {
	if len(dec) != len(src) {
		return 0, fmt.Errorf("decoded %d layers, sent %d", len(dec), len(src))
	}
	for l := range src {
		if dec[l].Rows != src[l].Rows || dec[l].Cols != src[l].Cols {
			return 0, fmt.Errorf("layer %d: decoded %dx%d, sent %dx%d", l, dec[l].Rows, dec[l].Cols, src[l].Rows, src[l].Cols)
		}
		e := sqErr(src[l].Data, dec[l].Data)
		if mse := e / float64(len(src[l].Data)); mse > mseBound(enc.Scales[l], enc.QP) {
			return 0, fmt.Errorf("layer %d: mse %.3g above the qp %d bound %.3g", l, mse, enc.QP, mseBound(enc.Scales[l], enc.QP))
		}
		sq += e
	}
	return sq, nil
}

// tensorStack wraps one rows×cols matrix as a single-layer stack.
func tensorStack(rows, cols int, v []float32) []*core.Tensor {
	return []*core.Tensor{core.FromSlice(rows, cols, v)}
}
