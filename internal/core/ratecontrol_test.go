package core

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/dct"
	"repro/internal/obs"
	"repro/internal/tensorgen"
)

// rcStack is a small two-layer weight stack for the rate-control tests.
func rcStack(seed int64) []*Tensor {
	rng := rand.New(rand.NewSource(seed))
	raw := tensorgen.WeightStack(rng, 2, 64, 64, 0.1)
	stack := make([]*Tensor, len(raw))
	for i, d := range raw {
		stack[i] = FromSlice(64, 64, d)
	}
	return stack
}

// TestEncodeToBitrateHitsBudget: the bitrate search returns an encode at
// or under the target, at the finest QP that fits — one step finer
// overshoots.
func TestEncodeToBitrateHitsBudget(t *testing.T) {
	stack := rcStack(10)
	o := DefaultOptions()
	for _, target := range []float64{1.0, 2.3, 3.5} {
		e, err := o.EncodeStackToBitrate(stack, target)
		if err != nil {
			t.Fatal(err)
		}
		if e.BitsPerValue() > target {
			t.Fatalf("target %.2f: got %.3f b/v (qp %d)", target, e.BitsPerValue(), e.QP)
		}
		if e.QP > 0 {
			finer, err := o.EncodeStack(stack, e.QP-1)
			if err != nil {
				t.Fatal(err)
			}
			if finer.BitsPerValue() <= target {
				t.Fatalf("target %.2f: qp %d also fits (%.3f b/v), search stopped at qp %d",
					target, e.QP-1, finer.BitsPerValue(), e.QP)
			}
		}
	}
}

// TestEncodeToMSEHitsBudget: the MSE search returns a reconstruction within
// the budget at the coarsest QP that meets it — one step coarser misses.
func TestEncodeToMSEHitsBudget(t *testing.T) {
	w := weightTensor(11, 96, 96)
	o := DefaultOptions()
	variance := stddev(w.Data) * stddev(w.Data)
	// Fractions of the variance; 8-bit quantization alone costs ~0.0025.
	for _, frac := range []float64{0.01, 0.03, 0.1} {
		budget := frac * variance
		e, d, err := o.EncodeToMSE(w, budget)
		if err != nil {
			t.Fatal(err)
		}
		if got := w.MSE(d); got > budget {
			t.Fatalf("budget %.3g: MSE %.3g (qp %d)", budget, got, e.QP)
		}
		if e.QP < dct.MaxQP {
			coarser, _, err := o.Roundtrip(w, e.QP+1)
			if err != nil {
				t.Fatal(err)
			}
			if w.MSE(coarser) <= budget {
				t.Fatalf("budget %.3g: qp %d also fits, search stopped at qp %d", budget, e.QP+1, e.QP)
			}
		}
	}
}

// TestEncodeToMSETightBudgetUsesFewBits: a loose MSE budget never costs more
// bits than a tight one.
func TestEncodeToMSETightBudgetUsesFewBits(t *testing.T) {
	w := weightTensor(12, 64, 64)
	o := DefaultOptions()
	variance := stddev(w.Data) * stddev(w.Data)
	tight, _, err := o.EncodeToMSE(w, 0.01*variance)
	if err != nil {
		t.Fatal(err)
	}
	loose, _, err := o.EncodeToMSE(w, 0.2*variance)
	if err != nil {
		t.Fatal(err)
	}
	if loose.BitsPerValue() > tight.BitsPerValue() {
		t.Fatalf("loose budget %.3f b/v > tight %.3f b/v", loose.BitsPerValue(), tight.BitsPerValue())
	}
}

// TestRateControlFallbackReusesProbe: an unreachable target returns the
// range-edge encode (MaxQP for a bitrate, QP 0 for an MSE budget) without
// encoding it again — the bisection already probed the edge on its way
// there, so the probe count is its step count: 6 toward MaxQP (25, 38, 45,
// 48, 50, 51), 5 toward 0 (25, 12, 5, 2, 0).
func TestRateControlFallbackReusesProbe(t *testing.T) {
	stack := rcStack(13)
	reg := obs.NewRegistry()
	o := DefaultOptions()
	o.Metrics = reg
	e, err := o.EncodeStackToBitrate(stack, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if e.QP != dct.MaxQP {
		t.Fatalf("infeasible bitrate chose qp %d, want MaxQP", e.QP)
	}
	want, err := DefaultOptions().EncodeStack(stack, dct.MaxQP)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(e.Stream, want.Stream) {
		t.Fatal("fallback stream differs from a direct MaxQP encode")
	}
	if got := reg.Snapshot().Counters["core.ratecontrol.probes"]; got != 6 {
		t.Fatalf("bitrate fallback made %d probe encodes, want 6", got)
	}

	reg = obs.NewRegistry()
	o.Metrics = reg
	e, mse, err := o.EncodeStackToMSE(stack, 0)
	if err != nil {
		t.Fatal(err)
	}
	if e.QP != 0 || mse <= 0 {
		t.Fatalf("unreachable MSE budget chose qp %d (mse %g), want qp 0", e.QP, mse)
	}
	if got := reg.Snapshot().Counters["core.ratecontrol.probes"]; got != 5 {
		t.Fatalf("MSE fallback made %d probe encodes, want 5", got)
	}
}

// TestRateControlProberMemoizes: probe encodes are cached by QP, so a
// repeated QP costs no encode and returns the same result.
func TestRateControlProberMemoizes(t *testing.T) {
	reg := obs.NewRegistry()
	o := DefaultOptions()
	o.Metrics = reg
	probe := o.probeStack(rcStack(14))
	probes := func() int64 { return reg.Snapshot().Counters["core.ratecontrol.probes"] }
	a, err := probe(20)
	if err != nil {
		t.Fatal(err)
	}
	b, err := probe(20)
	if err != nil {
		t.Fatal(err)
	}
	if a != b || probes() != 1 {
		t.Fatalf("two probes at one QP made %d encodes (same result: %v), want 1", probes(), a == b)
	}
	if _, err := probe(30); err != nil {
		t.Fatal(err)
	}
	if probes() != 2 {
		t.Fatalf("a distinct QP must miss the cache: %d encodes, want 2", probes())
	}
}

// TestEncodeStackRejectsMalformedTensors: a tensor whose Data does not hold
// Rows×Cols values (or a nil or empty one) is an error, not a panic in the
// frame chunker.
func TestEncodeStackRejectsMalformedTensors(t *testing.T) {
	good := weightTensor(15, 8, 8)
	cases := []struct {
		name  string
		stack []*Tensor
	}{
		{"short data", []*Tensor{{Rows: 8, Cols: 8, Data: make([]float32, 63)}}},
		{"long data", []*Tensor{{Rows: 8, Cols: 8, Data: make([]float32, 65)}}},
		{"zero rows", []*Tensor{{Rows: 0, Cols: 8}}},
		{"nil layer", []*Tensor{good, nil}},
		{"bad second layer", []*Tensor{good, {Rows: 8, Cols: 8, Data: make([]float32, 10)}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, perRow := range []bool{false, true} {
				o := DefaultOptions()
				o.PerRowQuant = perRow
				if _, err := o.EncodeStack(tc.stack, 28); err == nil {
					t.Fatalf("perRow=%v: malformed stack encoded", perRow)
				}
			}
		})
	}
}
