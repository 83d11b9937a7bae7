package codec

import (
	"bytes"
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/internal/frame"
)

// Envelope constants for the FastSearch quality contract (DESIGN.md §11):
// the decoded pixel-domain MSE of a FastSearch encode must stay within this
// multiplicative band of the exhaustive-RD encode of the same input, plus an
// absolute slack for near-lossless operating points where the ratio is
// ill-conditioned.
const (
	fastSearchMSEFactor = 1.30
	fastSearchMSESlack  = 1.5
)

// fastSearchCorpus is the deterministic workload the envelope is measured
// on: one smooth gradient plane and one channel-banded plane, the two
// structures the paper identifies in weight tensors.
func fastSearchCorpus() []*frame.Plane {
	rng := rand.New(rand.NewSource(42))
	return []*frame.Plane{
		gradientPlane(rng, 96, 96),
		channelPlane(rng, 96, 96),
	}
}

// TestFastSearchEnvelope pins the SATD→RD contract: for every profile and a
// spread of operating points, the two-survivor FastSearch must decode within
// the documented MSE envelope of the exhaustive search (full RD on all
// modes), and so must the default SAD search — FastSearch is not allowed to
// be the only pruned path with a tested bound.
func TestFastSearchEnvelope(t *testing.T) {
	planes := fastSearchCorpus()
	for _, base := range []Profile{H264, HEVC, AV1} {
		for _, qp := range []int{20, 28, 36} {
			exh := base
			exh.exhaustiveRD = true
			fast := base
			fast.FastSearch = true

			encode := func(p Profile) float64 {
				data, _, err := encodeSerial(context.Background(), planes, qp, p, AllTools, nil)
				if err != nil {
					t.Fatalf("%s qp=%d: %v", base.Name, qp, err)
				}
				return decodeMSE(t, data, planes)
			}
			mseExh := encode(exh)
			mseDef := encode(base)
			mseFast := encode(fast)

			bound := fastSearchMSEFactor*mseExh + fastSearchMSESlack
			if mseFast > bound {
				t.Errorf("%s qp=%d: FastSearch MSE %.3f exceeds envelope %.3f (exhaustive %.3f)",
					base.Name, qp, mseFast, bound, mseExh)
			}
			if mseDef > bound {
				t.Errorf("%s qp=%d: default-search MSE %.3f exceeds envelope %.3f (exhaustive %.3f)",
					base.Name, qp, mseDef, bound, mseExh)
			}
		}
	}
}

// TestFastSearchFasterThanExhaustive is the wall-clock side of the contract:
// two RD survivors after a decimated-SATD coarse stage must beat full RD on
// every profile mode. The margin is enormous (the HEVC profile runs 35 RD
// trials per block exhaustively), so a strict comparison is safe even on a
// loaded single-CPU CI machine.
func TestFastSearchFasterThanExhaustive(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	planes := fastSearchCorpus()
	exh := HEVC
	exh.exhaustiveRD = true
	fast := HEVC
	fast.FastSearch = true

	wall := func(p Profile) time.Duration {
		// Warm-up excludes pool population and first-touch costs.
		if _, _, err := encodeSerial(context.Background(), planes, 28, p, AllTools, nil); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		if _, _, err := encodeSerial(context.Background(), planes, 28, p, AllTools, nil); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	tExh, tFast := wall(exh), wall(fast)
	if tFast >= tExh {
		t.Errorf("FastSearch took %v, exhaustive %v — pruning bought nothing", tFast, tExh)
	}
	t.Logf("FastSearch %v vs exhaustive %v (%.1fx)", tFast, tExh, float64(tExh)/float64(tFast))
}

// TestFastSearchDeterministicAcrossWorkers: the FastSearch bitstream, like
// the default one, must be a pure function of the input — identical bytes at
// every worker count, decodable by a decoder that has never heard of
// FastSearch (the knob is not serialized).
func TestFastSearchDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var planes []*frame.Plane
	for i := 0; i < 6; i++ {
		planes = append(planes, gradientPlane(rng, 128, 128))
	}
	fast := HEVC
	fast.FastSearch = true

	ref, _, err := Encoder{Profile: fast, Tools: AllTools, Workers: 1}.Encode(context.Background(), planes, 30)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		data, _, err := Encoder{Profile: fast, Tools: AllTools, Workers: workers}.Encode(context.Background(), planes, 30)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !bytes.Equal(data, ref) {
			t.Errorf("workers=%d: FastSearch bytes differ from workers=1", workers)
		}
	}
	// Decode with no FastSearch knowledge at several pool sizes.
	refDec, err := Decoder{Workers: 1}.Decode(context.Background(), ref)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		dec, err := Decoder{Workers: workers}.Decode(context.Background(), ref)
		if err != nil {
			t.Fatalf("decode workers=%d: %v", workers, err)
		}
		for i := range dec {
			if !bytes.Equal(dec[i].Pix, refDec[i].Pix) {
				t.Errorf("decode workers=%d: plane %d differs", workers, i)
			}
		}
	}
}

// TestFastSearchAwkwardShapes walks the degenerate geometries (single pixel,
// single row/column, prime dims, constant content) through the FastSearch
// path and requires reconstructions no worse than the documented envelope of
// the default search on the same input.
func TestFastSearchAwkwardShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	shapes := []struct{ w, h int }{
		{1, 1}, {1, 7}, {7, 1}, {37, 41}, {64, 64},
	}
	fast := HEVC
	fast.FastSearch = true
	for _, sh := range shapes {
		for _, constant := range []bool{false, true} {
			var p *frame.Plane
			if constant {
				p = frame.NewPlane(sh.w, sh.h)
				for i := range p.Pix {
					p.Pix[i] = 131
				}
			} else {
				p = gradientPlane(rng, sh.w, sh.h)
			}
			planes := []*frame.Plane{p}

			dataDef, _, err := encodeSerial(context.Background(), planes, 20, HEVC, AllTools, nil)
			if err != nil {
				t.Fatalf("%dx%d const=%v default: %v", sh.w, sh.h, constant, err)
			}
			dataFast, _, err := encodeSerial(context.Background(), planes, 20, fast, AllTools, nil)
			if err != nil {
				t.Fatalf("%dx%d const=%v fast: %v", sh.w, sh.h, constant, err)
			}
			mseDef := decodeMSE(t, dataDef, planes)
			mseFast := decodeMSE(t, dataFast, planes)
			if mseFast > fastSearchMSEFactor*mseDef+fastSearchMSESlack {
				t.Errorf("%dx%d const=%v: fast MSE %.3f vs default %.3f",
					sh.w, sh.h, constant, mseFast, mseDef)
			}
		}
	}
}

// TestFastSearchNotSerialized: two streams encoded from the same input with
// and without FastSearch may differ in bytes, but their headers must be
// identical — the knob must leave no trace in the container, or old decoders
// would reject new streams.
func TestFastSearchNotSerialized(t *testing.T) {
	planes := fastSearchCorpus()
	fast := HEVC
	fast.FastSearch = true
	dataDef, _, err := encodeSerial(context.Background(), planes, 28, HEVC, AllTools, nil)
	if err != nil {
		t.Fatal(err)
	}
	dataFast, _, err := encodeSerial(context.Background(), planes, 28, fast, AllTools, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Common header: magic+version(5) profile(1) tools(1) qp(1) + frame
	// count + dim table. Both streams carry two 96×96 frames.
	hdr := 8 + 4 + 8*len(planes)
	if !bytes.Equal(dataDef[:hdr], dataFast[:hdr]) {
		t.Error("FastSearch leaked into the container header")
	}
}
