package codec

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/frame"
)

// typedOrNil fails the fuzz run if err is non-nil but matches none of the
// decode-error taxonomy — the contract is that hostile bytes produce typed
// errors, not ad-hoc ones and never panics.
func typedOrNil(t *testing.T, label string, err error) {
	if err == nil {
		return
	}
	if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrChecksum) {
		t.Fatalf("%s: untyped decode error %v", label, err)
	}
}

// FuzzDecode drives the strict and partial decoders with arbitrary bytes.
// The invariants, checked on every input the fuzzer invents:
//
//   - neither decoder panics (the fuzz engine fails the run on panic);
//   - every rejection is typed (ErrCorrupt / ErrTruncated / ErrChecksum);
//   - when the strict decoder accepts, the partial decoder agrees: no chunk
//     errors, identical plane geometry and pixels.
//
// Seeded with one valid container of each version, every golden conformance
// vector (testdata/golden/*.l265 — all profiles, tool combinations, and
// degenerate shapes) and a FastSearch-encoded stream, so the fuzzer starts
// from deep coverage rather than rediscovering the header format bit by bit.
func FuzzDecode(f *testing.F) {
	v1, v2, v3, corpus := corpusStreams(f)
	f.Add(v1)
	f.Add(v2)
	f.Add(v3)
	f.Add([]byte{})
	f.Add([]byte("L265"))
	// A truncated v3 prefix keeps the fuzzer exploring the chunk table.
	f.Add(v3[:len(v3)/2])
	// Indexed containers: the v3 trailer (magic, TLV records, trailer CRC)
	// is its own parse surface, so seed a whole one, a cut inside the
	// trailer, and a trailer grafted onto garbage payload bytes.
	regions := make([]PlaneRegion, len(corpus))
	for i := range regions {
		regions[i] = PlaneRegion{Layer: i, W: corpus[i].W, H: corpus[i].H}
	}
	indexed, _, err := Encoder{Profile: HEVC, Tools: AllTools, Workers: 1, Container: ContainerIndexed, Regions: regions}.Encode(context.Background(), corpus, 30)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(indexed)
	f.Add(indexed[:len(indexed)-trailerCRCLen-1])
	graft := append(append([]byte(nil), v3...), indexed[len(indexed)-64:]...)
	f.Add(graft)
	// The golden conformance corpus: known-good streams across every
	// profile, container version and awkward shape the encoder ships.
	goldens, err := filepath.Glob(filepath.Join("testdata", "golden", "*.l265"))
	if err != nil {
		f.Fatal(err)
	}
	if len(goldens) == 0 {
		f.Fatal("no golden vectors found — run go test -run TestGoldenConformance -update")
	}
	for _, path := range goldens {
		blob, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
		if strings.Contains(path, "hevc") {
			f.Add(blob[:len(blob)/2])
		}
	}
	// A FastSearch-encoded stream: same syntax, different mode statistics,
	// so the CABAC contexts get exercised from a second operating point.
	fastProf := HEVC
	fastProf.FastSearch = true
	rng := rand.New(rand.NewSource(99))
	fastStream, _, err := Encoder{Profile: fastProf, Tools: AllTools, Workers: 1}.Encode(context.Background(), []*frame.Plane{gradientPlane(rng, 80, 56)}, 26)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fastStream)

	f.Fuzz(func(t *testing.T, data []byte) {
		planes, strictErr := Decoder{Workers: 1}.Decode(context.Background(), data)
		typedOrNil(t, "strict", strictErr)

		res, partialErr := Decoder{Workers: 1}.DecodePartial(context.Background(), data)
		typedOrNil(t, "partial", partialErr)

		if strictErr == nil {
			// Accepted streams must decode identically under DecodePartial.
			if partialErr != nil {
				t.Fatalf("strict accepted but partial rejected: %v", partialErr)
			}
			if !res.OK() {
				t.Fatalf("strict accepted but partial reports chunk errors: %v", res.Errors)
			}
			if len(res.Planes) != len(planes) {
				t.Fatalf("plane counts: strict %d, partial %d", len(planes), len(res.Planes))
			}
			for i := range planes {
				if !planes[i].Equal(res.Planes[i]) {
					t.Fatalf("plane %d differs between strict and partial decode", i)
				}
			}
		}
		if partialErr == nil {
			for _, ce := range res.Errors {
				typedOrNil(t, "chunk", ce.Err)
			}
		}
	})
}
