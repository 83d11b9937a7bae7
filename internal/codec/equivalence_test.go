package codec

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"repro/internal/frame"
	"repro/internal/obs"
)

// TestEncodeEquivalenceMatrix is the differential contract over awkward
// shapes: for each workload, every worker count and an encode with a live
// metrics registry must produce byte-identical streams, and every decode
// configuration must reproduce identical planes. Single-chunk workloads
// additionally require the serial v1 path to match byte-for-byte (its
// container fallback rule).
func TestEncodeEquivalenceMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	constPlane := func(w, h int, v uint8) *frame.Plane {
		p := frame.NewPlane(w, h)
		for i := range p.Pix {
			p.Pix[i] = v
		}
		return p
	}
	manyPlanes := func(n, w, h int) []*frame.Plane {
		ps := make([]*frame.Plane, n)
		for i := range ps {
			ps[i] = gradientPlane(rng, w, h)
		}
		return ps
	}

	cases := []struct {
		name   string
		planes []*frame.Plane
	}{
		{"1x1", []*frame.Plane{gradientPlane(rng, 1, 1)}},
		{"1xN", []*frame.Plane{gradientPlane(rng, 1, 53)}},
		{"Nx1", []*frame.Plane{gradientPlane(rng, 53, 1)}},
		{"prime-31x29", []*frame.Plane{gradientPlane(rng, 31, 29)}},
		{"constant-64x64", []*frame.Plane{constPlane(64, 64, 131)}},
		{"multi-chunk-6x128x128", manyPlanes(6, 128, 128)},
	}
	profiles := []Profile{HEVC, func() Profile { p := HEVC; p.FastSearch = true; return p }()}

	for _, tc := range cases {
		for _, prof := range profiles {
			name := tc.name
			if prof.FastSearch {
				name += "+fast"
			}
			t.Run(name, func(t *testing.T) {
				ref, _, err := Encoder{Profile: prof, Tools: AllTools, Workers: 1}.Encode(context.Background(), tc.planes, 26)
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{2, 4, 8} {
					data, _, err := Encoder{Profile: prof, Tools: AllTools, Workers: workers}.Encode(context.Background(), tc.planes, 26)
					if err != nil {
						t.Fatalf("workers=%d: %v", workers, err)
					}
					if !bytes.Equal(data, ref) {
						t.Errorf("workers=%d bytes differ from workers=1", workers)
					}
				}
				// A live metrics registry.
				reg := obs.NewRegistry()
				data, _, err := Encoder{Profile: prof, Tools: AllTools, Workers: 4, Metrics: reg}.Encode(context.Background(), tc.planes, 26)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(data, ref) {
					t.Error("bytes with a metrics registry differ from bytes without")
				}
				// Serial v1 fallback: single-chunk containers must equal the
				// serial entry point byte-for-byte.
				if ref[4] == 1 {
					serial, _, err := encodeSerial(context.Background(), tc.planes, 26, prof, AllTools, nil)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(serial, ref) {
						t.Error("encodeSerial differs from single-chunk ContainerAuto")
					}
				}
				// Every decode surface agrees.
				refDec, err := Decoder{Workers: 1}.Decode(context.Background(), ref)
				if err != nil {
					t.Fatal(err)
				}
				for i, p := range refDec {
					if p.W != tc.planes[i].W || p.H != tc.planes[i].H {
						t.Fatalf("plane %d decoded to %dx%d, want %dx%d",
							i, p.W, p.H, tc.planes[i].W, tc.planes[i].H)
					}
				}
				for _, workers := range []int{2, 8} {
					dec, err := Decoder{Workers: workers}.Decode(context.Background(), ref)
					if err != nil {
						t.Fatalf("decode workers=%d: %v", workers, err)
					}
					for i := range dec {
						if !dec[i].Equal(refDec[i]) {
							t.Errorf("decode workers=%d plane %d differs", workers, i)
						}
					}
				}
				decObs, err := Decoder{Workers: 4, Metrics: obs.NewRegistry()}.Decode(context.Background(), ref)
				if err != nil {
					t.Fatal(err)
				}
				for i := range decObs {
					if !decObs[i].Equal(refDec[i]) {
						t.Errorf("decode with metrics: plane %d differs", i)
					}
				}
			})
		}
	}
}
