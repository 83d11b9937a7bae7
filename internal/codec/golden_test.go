package codec

import (
	"bytes"
	"context"
	"encoding/binary"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/frame"
)

// The golden conformance corpus pins the bitstream: every vector under
// testdata/golden/ stores the exact container bytes a deterministic source
// must encode to, plus the exact decoded planes those bytes must produce.
// The conformance test re-encodes every vector (at several worker counts for
// the chunked containers) and byte-compares against the stored stream, so any
// silent bitstream drift — from a refactor, a "harmless" reordering, or a
// search-heuristic tweak — fails loudly.
//
// Regenerate after an *intentional* bitstream change with:
//
//	go test ./internal/codec -run TestGoldenConformance -update
//
// and commit the new vectors together with the change that caused them.
var updateGolden = flag.Bool("update", false, "regenerate golden conformance vectors")

const goldenDir = "testdata/golden"

// goldenVector is one pinned encode: a deterministic source, a configuration,
// and the container flavor to produce.
type goldenVector struct {
	name    string
	qp      int
	prof    Profile
	tools   Tools
	kind    string // "v1" = encodeSerial, "v2" = ContainerAuto, "v3" = ContainerChecksummed
	workers int    // worker count used when regenerating (v2/v3)
	planes  func() []*frame.Plane
}

// goldenVectors returns the corpus definition. Sources are generated from
// fixed seeds, so the corpus needs to store only streams and reconstructions.
func goldenVectors() []goldenVector {
	grad := func(seed int64, w, h int) func() []*frame.Plane {
		return func() []*frame.Plane {
			return []*frame.Plane{gradientPlane(rand.New(rand.NewSource(seed)), w, h)}
		}
	}
	noise := func(seed int64, w, h int) func() []*frame.Plane {
		return func() []*frame.Plane {
			return []*frame.Plane{noisePlane(rand.New(rand.NewSource(seed)), w, h)}
		}
	}
	stack := func(seed int64, n, w, h int) func() []*frame.Plane {
		return func() []*frame.Plane {
			rng := rand.New(rand.NewSource(seed))
			ps := make([]*frame.Plane, n)
			for i := range ps {
				if i%2 == 0 {
					ps[i] = channelPlane(rng, w, h)
				} else {
					ps[i] = gradientPlane(rng, w, h)
				}
			}
			return ps
		}
	}
	noCABAC := AllTools
	noCABAC.CABAC = false
	interTools := AllTools
	interTools.InterPred = true
	return []goldenVector{
		{name: "v1-hevc-gradient-96x96-qp28", qp: 28, prof: HEVC, tools: AllTools, kind: "v1",
			planes: grad(101, 96, 96)},
		{name: "v1-h264-channel-64x48-qp24", qp: 24, prof: H264, tools: AllTools, kind: "v1",
			planes: func() []*frame.Plane {
				return []*frame.Plane{channelPlane(rand.New(rand.NewSource(102)), 64, 48)}
			}},
		{name: "v1-av1-noise-33x31-qp20", qp: 20, prof: AV1, tools: AllTools, kind: "v1",
			planes: noise(103, 33, 31)},
		{name: "v1-hevc-notools-64x64-qp24", qp: 24, prof: HEVC, tools: Tools{}, kind: "v1",
			planes: grad(104, 64, 64)},
		{name: "v1-hevc-nocabac-64x64-qp30", qp: 30, prof: HEVC, tools: noCABAC, kind: "v1",
			planes: grad(105, 64, 64)},
		{name: "v1-hevc-1x1-qp20", qp: 20, prof: HEVC, tools: AllTools, kind: "v1",
			planes: noise(106, 1, 1)},
		{name: "v1-hevc-prime-17x13-qp16", qp: 16, prof: HEVC, tools: AllTools, kind: "v1",
			planes: noise(107, 17, 13)},
		{name: "v1-hevc-inter-2f-64x64-qp24", qp: 24, prof: HEVC, tools: interTools, kind: "v1",
			planes: func() []*frame.Plane {
				rng := rand.New(rand.NewSource(108))
				base := gradientPlane(rng, 64, 64)
				shifted := frame.NewPlane(64, 64)
				for y := 0; y < 64; y++ {
					for x := 0; x < 64; x++ {
						sx := clampInt(x-2, 0, 63)
						shifted.Set(x, y, base.At(sx, y))
					}
				}
				return []*frame.Plane{base, shifted}
			}},
		// 6 × 96×96 planes = 55296 px: two v2/v3 chunks at the 2^15 floor, so
		// these pin the chunked container framing and worker determinism.
		{name: "v2-hevc-stack6-96x96-qp30", qp: 30, prof: HEVC, tools: AllTools, kind: "v2",
			workers: 2, planes: stack(109, 6, 96, 96)},
		{name: "v3-hevc-stack6-96x96-qp30", qp: 30, prof: HEVC, tools: AllTools, kind: "v3",
			workers: 2, planes: stack(109, 6, 96, 96)},
		{name: "v3-h264-stack4-80x64-qp26", qp: 26, prof: H264, tools: AllTools, kind: "v3",
			workers: 2, planes: stack(110, 4, 80, 64)},
		// Interleaved-rANS backend vectors: same deterministic sources, v3
		// container with the backend extension. Conformance re-encodes at
		// workers 1/2/4/8, pinning the shared-table build and slot-major
		// payload assembly byte-for-byte.
		{name: "v3-rans-hevc-stack6-96x96-qp30", qp: 30, prof: HEVC, tools: ransTools(), kind: "v3",
			workers: 2, planes: stack(109, 6, 96, 96)},
		{name: "v3-rans-h264-stack4-80x64-qp26", qp: 26, prof: H264, tools: ransTools(), kind: "v3",
			workers: 2, planes: stack(110, 4, 80, 64)},
		{name: "v3-rans-hevc-noise-33x31-qp16", qp: 16, prof: HEVC, tools: ransTools(), kind: "v3",
			workers: 1, planes: noise(111, 33, 31)},
	}
}

// encodeGoldenVector produces the vector's container with the given worker
// count (ignored for v1).
func encodeGoldenVector(v goldenVector, workers int) ([]byte, error) {
	planes := v.planes()
	switch v.kind {
	case "v1":
		data, _, err := encodeSerial(context.Background(), planes, v.qp, v.prof, v.tools, nil)
		return data, err
	case "v2":
		data, _, err := Encoder{Profile: v.prof, Tools: v.tools, Workers: workers}.Encode(context.Background(), planes, v.qp)
		return data, err
	case "v3":
		data, _, err := Encoder{Profile: v.prof, Tools: v.tools, Workers: workers, Container: ContainerChecksummed}.Encode(context.Background(), planes, v.qp)
		return data, err
	}
	return nil, fmt.Errorf("unknown golden kind %q", v.kind)
}

// ------------------------------------------------ plane-file (de)serialization

// marshalPlanes serializes decoded planes in the simple golden format:
// "GPLN" | uint32 count | count × (uint32 w, uint32 h, w*h pixel bytes).
func marshalPlanes(planes []*frame.Plane) []byte {
	var buf bytes.Buffer
	buf.WriteString("GPLN")
	binary.Write(&buf, binary.BigEndian, uint32(len(planes)))
	for _, p := range planes {
		binary.Write(&buf, binary.BigEndian, uint32(p.W))
		binary.Write(&buf, binary.BigEndian, uint32(p.H))
		buf.Write(p.Pix)
	}
	return buf.Bytes()
}

func unmarshalPlanes(data []byte) ([]*frame.Plane, error) {
	if len(data) < 8 || string(data[:4]) != "GPLN" {
		return nil, fmt.Errorf("bad golden plane file header")
	}
	n := int(binary.BigEndian.Uint32(data[4:]))
	off := 8
	planes := make([]*frame.Plane, 0, n)
	for i := 0; i < n; i++ {
		if len(data) < off+8 {
			return nil, fmt.Errorf("golden plane file ends inside plane %d header", i)
		}
		w := int(binary.BigEndian.Uint32(data[off:]))
		h := int(binary.BigEndian.Uint32(data[off+4:]))
		off += 8
		if w <= 0 || h <= 0 || len(data) < off+w*h {
			return nil, fmt.Errorf("golden plane file: plane %d is %dx%d with %d bytes left", i, w, h, len(data)-off)
		}
		p := frame.NewPlane(w, h)
		copy(p.Pix, data[off:off+w*h])
		off += w * h
		planes = append(planes, p)
	}
	return planes, nil
}

func goldenStreamPath(name string) string { return filepath.Join(goldenDir, name+".l265") }
func goldenPlanesPath(name string) string { return filepath.Join(goldenDir, name+".planes") }

// TestGoldenConformance is the corpus gate: for every vector it
//
//  1. re-encodes the deterministic source and byte-compares the container
//     against the committed stream (for chunked containers, at worker counts
//     1, 2, 4 and 8 — all must be bit-identical);
//  2. decodes the committed stream and compares every reconstructed plane
//     against the committed reconstruction.
//
// Run with -update to regenerate the corpus after an intentional change.
func TestGoldenConformance(t *testing.T) {
	if *updateGolden {
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, v := range goldenVectors() {
		v := v
		t.Run(v.name, func(t *testing.T) {
			if *updateGolden {
				workers := v.workers
				if workers == 0 {
					workers = 1
				}
				stream, err := encodeGoldenVector(v, workers)
				if err != nil {
					t.Fatal(err)
				}
				dec, err := Decoder{}.Decode(context.Background(), stream)
				if err != nil {
					t.Fatalf("decode of freshly encoded golden stream: %v", err)
				}
				if err := os.WriteFile(goldenStreamPath(v.name), stream, 0o644); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(goldenPlanesPath(v.name), marshalPlanes(dec), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("regenerated %s (%d stream bytes)", v.name, len(stream))
				return
			}

			want, err := os.ReadFile(goldenStreamPath(v.name))
			if err != nil {
				t.Fatalf("missing golden stream (run with -update): %v", err)
			}
			wantPlanesRaw, err := os.ReadFile(goldenPlanesPath(v.name))
			if err != nil {
				t.Fatalf("missing golden planes (run with -update): %v", err)
			}
			wantPlanes, err := unmarshalPlanes(wantPlanesRaw)
			if err != nil {
				t.Fatal(err)
			}

			workerCounts := []int{1}
			if v.kind != "v1" {
				workerCounts = []int{1, 2, 4, 8}
			}
			for _, w := range workerCounts {
				got, err := encodeGoldenVector(v, w)
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("workers=%d: bitstream drift: got %d bytes, golden %d bytes (first diff at %d)",
						w, len(got), len(want), firstDiff(got, want))
				}
			}

			dec, err := Decoder{}.Decode(context.Background(), want)
			if err != nil {
				t.Fatalf("decode golden stream: %v", err)
			}
			if len(dec) != len(wantPlanes) {
				t.Fatalf("decoded %d planes, golden has %d", len(dec), len(wantPlanes))
			}
			for i := range dec {
				if !dec[i].Equal(wantPlanes[i]) {
					t.Fatalf("plane %d reconstruction drift", i)
				}
			}
		})
	}
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// TestStableTopKMatchesStableSort pins the mode-ranking rule the bitstream
// depends on: the encoder's insertion-based top-K selection must agree with a
// stable sort by (SAD ascending, scoring index descending) — i.e. on equal
// SAD the last-scored candidate ranks first — for any input.
func TestStableTopKMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(35)
		sads := make([]int64, n)
		for i := range sads {
			sads[i] = int64(rng.Intn(8)) // many ties
		}
		// Reference: stable sort of indices by (sad asc, index desc).
		ref := make([]int, n)
		for i := range ref {
			ref[i] = i
		}
		sort.SliceStable(ref, func(a, b int) bool {
			if sads[ref[a]] != sads[ref[b]] {
				return sads[ref[a]] < sads[ref[b]]
			}
			return ref[a] > ref[b]
		})

		// The encoder's selection, transcribed from decideLeaf.
		var top [rdCandidates]int
		topN := 0
		for ci := 0; ci < n; ci++ {
			pos := topN
			for pos > 0 && sads[ci] <= sads[top[pos-1]] {
				pos--
			}
			if pos >= len(top) {
				continue
			}
			if topN < len(top) {
				topN++
			}
			copy(top[pos+1:topN], top[pos:topN-1])
			top[pos] = ci
		}

		wantN := rdCandidates
		if n < wantN {
			wantN = n
		}
		if topN != wantN {
			t.Fatalf("trial %d: selected %d, want %d", trial, topN, wantN)
		}
		for i := 0; i < topN; i++ {
			if top[i] != ref[i] {
				t.Fatalf("trial %d: rank %d: got idx %d (sad %d), want idx %d (sad %d)",
					trial, i, top[i], sads[top[i]], ref[i], sads[ref[i]])
			}
		}
	}
}
