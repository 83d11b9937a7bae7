package codec

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/frame"
)

// The allocation regression suite pins the scratch-arena contract (DESIGN.md
// §11): once a worker's scratch is warm, encoding or decoding more blocks
// must not allocate more. The tests measure differentially — a 128×128 plane
// (16 HEVC CTUs) against a 32×32 plane (1 CTU) — so the per-call fixed costs
// (cropped output planes, the payload copy, the recon list) cancel out and
// any per-block allocation shows up as a difference.

// encodeAllocs measures steady-state allocations of encodeChunk on a warm,
// explicitly held scratch (bypassing the pool so GC-driven pool eviction
// cannot flake the count).
func encodeAllocs(planes []*frame.Plane, prof Profile, s *scratch) float64 {
	encodeChunk(context.Background(), planes, 30, prof, AllTools, nil, s) // warm this geometry
	return testing.AllocsPerRun(10, func() {
		encodeChunk(context.Background(), planes, 30, prof, AllTools, nil, s)
	})
}

func TestEncodeSteadyStateAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	small := []*frame.Plane{gradientPlane(rng, 32, 32)}
	large := []*frame.Plane{gradientPlane(rng, 128, 128)}
	for _, prof := range []Profile{HEVC, func() Profile { p := HEVC; p.FastSearch = true; return p }()} {
		s := newScratch()
		aSmall := encodeAllocs(small, prof, s)
		aLarge := encodeAllocs(large, prof, s)
		name := prof.Name
		if prof.FastSearch {
			name += "+fast"
		}
		// 16x the blocks must not mean more allocations; the tiny slack
		// absorbs runtime-internal noise (e.g. a growing map bucket).
		if aLarge > aSmall+2 {
			t.Errorf("%s: 128x128 encode does %.0f allocs vs %.0f for 32x32 — hot path is allocating per block",
				name, aLarge, aSmall)
		}
		// Absolute ceiling on the per-call fixed costs: output crop plane,
		// payload copy, recon list. Catches a whole new allocation site even
		// when it is block-count independent.
		if aSmall > 16 {
			t.Errorf("%s: %.0f fixed allocations per encodeChunk call, want <= 16", name, aSmall)
		}
	}
}

func TestDecodeSteadyStateAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	build := func(w, h int) ([]byte, [][2]int) {
		planes := []*frame.Plane{gradientPlane(rng, w, h)}
		s := newScratch()
		payload, _, _, _ := encodeChunk(context.Background(), planes, 30, HEVC, AllTools, nil, s)
		return payload, [][2]int{{w, h}}
	}
	smallPay, smallDims := build(32, 32)
	largePay, largeDims := build(128, 128)

	s := newScratch()
	measure := func(payload []byte, dims [][2]int) float64 {
		if _, err := decodeChunkPayload(context.Background(), payload, dims, HEVC, AllTools, 30, nil, false, s); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(10, func() {
			if _, err := decodeChunkPayload(context.Background(), payload, dims, HEVC, AllTools, 30, nil, false, s); err != nil {
				panic(err)
			}
		})
	}
	aSmall := measure(smallPay, smallDims)
	aLarge := measure(largePay, largeDims)
	if aLarge > aSmall+2 {
		t.Errorf("128x128 decode does %.0f allocs vs %.0f for 32x32 — hot path is allocating per block",
			aLarge, aSmall)
	}
	if aSmall > 16 {
		t.Errorf("%.0f fixed allocations per decodeChunkPayload call, want <= 16", aSmall)
	}
}

// TestScratchPoolReuse: the public boundary must reach steady state too —
// after a warm-up call, repeated Encode/Decode cycles should stay within the
// per-call fixed budget because the pool hands back warm scratches.
func TestScratchPoolReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	planes := []*frame.Plane{gradientPlane(rng, 64, 64)}
	data, _, err := encodeSerial(context.Background(), planes, 30, HEVC, AllTools, nil) // warm the pool
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (Decoder{}).Decode(context.Background(), data); err != nil {
		t.Fatal(err)
	}
	// AllocsPerRun forces a GC between runs, which may evict the pooled
	// scratch; tolerate one full scratch re-allocation's worth of fixed
	// costs but nothing that scales with block count (64 blocks here).
	a := testing.AllocsPerRun(5, func() {
		d, _, err := encodeSerial(context.Background(), planes, 30, HEVC, AllTools, nil)
		if err != nil {
			panic(err)
		}
		if _, err := (Decoder{}).Decode(context.Background(), d); err != nil {
			panic(err)
		}
	})
	if a > 64 {
		t.Errorf("Encode+Decode round trip does %.0f allocs at steady state, want <= 64", a)
	}
}
