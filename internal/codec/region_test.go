package codec

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"os"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/frame"
	"repro/internal/obs"
)

// indexedStream builds one indexed multi-chunk container (9 × 64×64 planes →
// two chunks, same content as corpusStreams' v3) with a full region table.
// The returned planes are the decoded reconstruction (encoding is lossy), so
// they are the byte-exact reference for every decode path.
func indexedStream(t testing.TB) ([]byte, []*frame.Plane, []PlaneRegion) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	_ = gradientPlane(rng, 48, 40) // keep the rng phase identical to corpusStreams
	planes := make([]*frame.Plane, 9)
	regions := make([]PlaneRegion, 9)
	for i := range planes {
		planes[i] = gradientPlane(rng, 64, 64)
		regions[i] = PlaneRegion{Layer: i / 3, X0: (i % 3) * 64, Y0: 0, W: 64, H: 64}
	}
	data, _, err := Encoder{Profile: HEVC, Tools: AllTools, Workers: 2, Container: ContainerIndexed, Regions: regions}.Encode(context.Background(), planes, 30)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Decoder{Workers: 2}.Decode(context.Background(), data)
	if err != nil {
		t.Fatalf("decoding the indexed stream: %v", err)
	}
	return data, rec, regions
}

func requirePlanesEqual(t *testing.T, label string, got, want []*frame.Plane) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d planes, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].W != want[i].W || got[i].H != want[i].H {
			t.Fatalf("%s: plane %d is %dx%d, want %dx%d", label, i, got[i].W, got[i].H, want[i].W, want[i].H)
		}
		if !bytes.Equal(got[i].Pix, want[i].Pix) {
			t.Fatalf("%s: plane %d pixel mismatch", label, i)
		}
	}
}

// TestIndexedStreamAcceptedByStrictDecoders is the satellite-1 compat
// regression: before the trailer-aware exact-length rule, every strict
// decoder rejected an indexed container with "trailing bytes after container
// end" (PR 2's anti-downgrade check). An indexed stream must now decode
// byte-identically to its un-indexed twin through every strict entry point.
func TestIndexedStreamAcceptedByStrictDecoders(t *testing.T) {
	data, planes, _ := indexedStream(t)
	_, _, v3, _ := corpusStreams(t)

	// The indexed container is its un-indexed twin plus a trailer: same
	// header, same payloads, so a reader that strips the trailer sees
	// bit-identical v3 bytes.
	if !bytes.Equal(data[:len(v3)], v3) {
		t.Fatalf("indexed container does not extend the un-indexed one (diverges within the first %d bytes)", len(v3))
	}
	if len(data) == len(v3) {
		t.Fatal("indexed container has no trailer")
	}

	want, err := Decoder{Workers: 2}.Decode(context.Background(), v3)
	if err != nil {
		t.Fatal(err)
	}
	requirePlanesEqual(t, "un-indexed reference", want, planes)

	for _, workers := range []int{1, 2, 4, 8} {
		got, err := Decoder{Workers: workers}.Decode(context.Background(), data)
		if err != nil {
			t.Fatalf("Decode(indexed, workers=%d): %v", workers, err)
		}
		requirePlanesEqual(t, "Decode(indexed)", got, want)

		res, err := Decoder{Workers: workers}.DecodePartial(context.Background(), data)
		if err != nil {
			t.Fatalf("DecodePartial(indexed, workers=%d): %v", workers, err)
		}
		if !res.OK() {
			t.Fatalf("DecodePartial(indexed, workers=%d): %d chunk errors, first: %v", workers, len(res.Errors), res.Errors[0])
		}
		requirePlanesEqual(t, "DecodePartial(indexed)", res.Planes, want)
	}
}

// TestTrailerPreservesAntiDowngrade proves relaxing the exact-length rule
// did not reopen the trailing-bytes hole: arbitrary trailing bytes are still
// ErrCorrupt on every version, a trailer on a v1/v2 container is ErrCorrupt,
// and a version-byte downgrade of an indexed container still fails.
func TestTrailerPreservesAntiDowngrade(t *testing.T) {
	v1, v2, v3, _ := corpusStreams(t)
	indexed, _, _ := indexedStream(t)
	trailer := append([]byte(nil), indexed[len(v3):]...)

	check := func(label string, data []byte) {
		t.Helper()
		if _, err := (Decoder{Workers: 2}).Decode(context.Background(), data); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: err = %v, want ErrCorrupt", label, err)
		}
	}
	for _, tc := range []struct {
		name string
		data []byte
	}{{"v1", v1}, {"v2", v2}, {"v3", v3}} {
		check(tc.name+"+garbage", append(append([]byte(nil), tc.data...), 0xAA, 0xBB, 0xCC))
	}
	// A well-formed trailer is only defined for v3.
	check("v1+trailer", append(append([]byte(nil), v1...), trailer...))
	check("v2+trailer", append(append([]byte(nil), v2...), trailer...))
	// Bytes after the trailer break the "nothing after it" rule.
	check("v3+trailer+garbage", append(append([]byte(nil), indexed...), 0x00))
	// Version-byte downgrade of an indexed stream: the v3 chunk table and
	// trailer no longer parse under v1/v2 framing.
	for _, v := range []byte{1, 2} {
		bad := append([]byte(nil), indexed...)
		bad[4] = v
		if _, err := (Decoder{Workers: 2}).Decode(context.Background(), bad); err == nil {
			t.Fatalf("downgrade to v%d accepted", v)
		}
	}
}

// TestReadIndexAndLayout pins the trailer contents: the index restates the
// chunk table with absolute offsets and carries the encoder's region rects,
// and Layout agrees with it byte for byte.
func TestReadIndexAndLayout(t *testing.T) {
	data, _, regions := indexedStream(t)
	_, _, v3, _ := corpusStreams(t)

	idx, err := ReadIndex(data)
	if err != nil {
		t.Fatal(err)
	}
	if idx == nil {
		t.Fatal("ReadIndex(indexed) = nil")
	}
	if len(idx.Entries) != 2 {
		t.Fatalf("index has %d chunks, want 2", len(idx.Entries))
	}
	if len(idx.Regions) != len(regions) {
		t.Fatalf("index has %d regions, want %d", len(idx.Regions), len(regions))
	}
	for i, r := range idx.Regions {
		if r != regions[i] {
			t.Fatalf("region %d = %+v, want %+v", i, r, regions[i])
		}
	}
	lay, err := Layout(data)
	if err != nil {
		t.Fatal(err)
	}
	if lay.Version != 3 || lay.Planes != 9 || lay.Index == nil {
		t.Fatalf("layout = %+v", lay)
	}
	if lay.TrailerOff != len(v3) || lay.TrailerLen != len(data)-len(v3) {
		t.Fatalf("trailer span [%d,+%d), want [%d,+%d)", lay.TrailerOff, lay.TrailerLen, len(v3), len(data)-len(v3))
	}
	planeBase := 0
	for i, e := range lay.Entries {
		if e != idx.Entries[i] {
			t.Fatalf("layout entry %d = %+v, index says %+v", i, e, idx.Entries[i])
		}
		if e.PlaneBase != planeBase {
			t.Fatalf("entry %d planeBase = %d, want %d", i, e.PlaneBase, planeBase)
		}
		planeBase += e.PlaneCount
		// Offsets address the same payload bytes in the indexed and
		// un-indexed twin.
		if !bytes.Equal(data[e.Offset:e.Offset+int64(e.Length)], v3[e.Offset:e.Offset+int64(e.Length)]) {
			t.Fatalf("entry %d payload bytes diverge from the un-indexed twin", i)
		}
	}
	if planeBase != 9 {
		t.Fatalf("entries cover %d planes, want 9", planeBase)
	}

	// Un-indexed containers: no index, but Layout still computes entries.
	if idx, err := ReadIndex(v3); err != nil || idx != nil {
		t.Fatalf("ReadIndex(un-indexed) = %v, %v; want nil, nil", idx, err)
	}
	lay2, err := Layout(v3)
	if err != nil {
		t.Fatal(err)
	}
	if lay2.Index != nil || lay2.TrailerLen != 0 || len(lay2.Entries) != len(lay.Entries) {
		t.Fatalf("un-indexed layout = %+v", lay2)
	}
	for i := range lay2.Entries {
		if lay2.Entries[i] != lay.Entries[i] {
			t.Fatalf("un-indexed entry %d = %+v, want %+v", i, lay2.Entries[i], lay.Entries[i])
		}
	}
}

// TestEncodeIndexedDeterminism: indexed container bytes are identical for
// every worker count, for both entropy backends.
func TestEncodeIndexedDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	planes := make([]*frame.Plane, 6)
	regions := make([]PlaneRegion, 6)
	for i := range planes {
		planes[i] = channelPlane(rng, 96, 96)
		regions[i] = PlaneRegion{Layer: i, W: 96, H: 96}
	}
	for _, tools := range []Tools{AllTools, ransTools()} {
		ref, _, err := Encoder{Profile: HEVC, Tools: tools, Workers: 1, Container: ContainerIndexed, Regions: regions}.Encode(context.Background(), planes, 30)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4, 8} {
			got, _, err := Encoder{Profile: HEVC, Tools: tools, Workers: workers, Container: ContainerIndexed, Regions: regions}.Encode(context.Background(), planes, 30)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, ref) {
				t.Fatalf("backend %v: workers=%d bytes differ from workers=1", tools.Backend, workers)
			}
		}
	}
	// Region-count mismatch is an encode-time error, not a bad stream.
	if _, _, err := (Encoder{Profile: HEVC, Tools: AllTools, Workers: 1, Container: ContainerIndexed, Regions: regions[:3]}).Encode(context.Background(), planes, 30); err == nil {
		t.Fatal("ContainerIndexed accepted 3 regions for 6 planes")
	}
}

// TestDecodeRegionGoldenEquivalence is the satellite-4 matrix: for every
// golden vector (both backends), every worker count and every plane window,
// DecodeRegion's bytes equal the full decode's crop — and on a re-encoded
// indexed twin of each vector too.
func TestDecodeRegionGoldenEquivalence(t *testing.T) {
	vectors := goldenVectors()
	if len(vectors) < 11 {
		t.Fatalf("golden corpus has %d vectors, want at least 11", len(vectors))
	}
	for _, v := range vectors {
		t.Run(v.name, func(t *testing.T) {
			stream, err := os.ReadFile(goldenStreamPath(v.name))
			if err != nil {
				t.Fatal(err)
			}
			full, err := Decoder{Workers: 4}.Decode(context.Background(), stream)
			if err != nil {
				t.Fatal(err)
			}
			// An indexed re-encode of the same source (v3 framing regardless
			// of the vector's own version).
			indexed, _, err := Encoder{Profile: v.prof, Tools: v.tools, Workers: 2, Container: ContainerIndexed}.Encode(context.Background(), v.planes(), v.qp)
			if err != nil {
				t.Fatal(err)
			}
			windows := [][2]int{{0, len(full)}}
			for i := range full {
				windows = append(windows, [2]int{i, 1})
			}
			if len(full) > 2 {
				windows = append(windows, [2]int{1, len(full) - 2})
			}
			for _, workers := range []int{1, 2, 4, 8} {
				for _, win := range windows {
					got, err := Decoder{Workers: workers}.DecodeRegion(context.Background(), stream, win[0], win[1])
					if err != nil {
						t.Fatalf("DecodeRegion(%s, [%d,+%d), w=%d): %v", v.name, win[0], win[1], workers, err)
					}
					requirePlanesEqual(t, "region vs full crop", got, full[win[0]:win[0]+win[1]])

					got, err = Decoder{Workers: workers}.DecodeRegion(context.Background(), indexed, win[0], win[1])
					if err != nil {
						t.Fatalf("DecodeRegion(indexed %s, [%d,+%d), w=%d): %v", v.name, win[0], win[1], workers, err)
					}
					requirePlanesEqual(t, "indexed region vs full crop", got, full[win[0]:win[0]+win[1]])
				}
			}
		})
	}
}

// TestDecodeRegionIsORegion proves the acceptance bound: decoding one plane
// of a two-chunk container decodes one chunk, not two — the
// codec.decode.chunks counter counts exactly the chunks touched.
func TestDecodeRegionIsORegion(t *testing.T) {
	data, planes, _ := indexedStream(t)

	chunkCount := func(f func(reg *obs.Registry)) int64 {
		reg := obs.NewRegistry()
		f(reg)
		return reg.Snapshot().Counters["codec.decode.chunks"]
	}

	fullChunks := chunkCount(func(reg *obs.Registry) {
		if _, err := (Decoder{Workers: 2, Metrics: reg}).Decode(context.Background(), data); err != nil {
			t.Fatal(err)
		}
	})
	if fullChunks != 2 {
		t.Fatalf("full decode touched %d chunks, want 2", fullChunks)
	}
	// Plane 0 lives in chunk 0 (planes 0..7): exactly one chunk decoded.
	regionChunks := chunkCount(func(reg *obs.Registry) {
		got, err := Decoder{Workers: 2, Metrics: reg}.DecodeRegion(context.Background(), data, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		requirePlanesEqual(t, "plane 0", got, planes[:1])
	})
	if regionChunks != 1 {
		t.Fatalf("region decode touched %d chunks, want 1", regionChunks)
	}
	// Plane 8 lives alone in chunk 1.
	lastChunks := chunkCount(func(reg *obs.Registry) {
		got, err := Decoder{Workers: 2, Metrics: reg}.DecodeRegion(context.Background(), data, 8, 1)
		if err != nil {
			t.Fatal(err)
		}
		requirePlanesEqual(t, "plane 8", got, planes[8:])
	})
	if lastChunks != 1 {
		t.Fatalf("last-plane decode touched %d chunks, want 1", lastChunks)
	}

	// Out-of-range windows are caller errors, never panics.
	for _, win := range [][2]int{{-1, 1}, {0, 0}, {9, 1}, {8, 2}} {
		if _, err := (Decoder{Workers: 2}).DecodeRegion(context.Background(), data, win[0], win[1]); err == nil {
			t.Fatalf("DecodeRegion accepted window [%d,+%d)", win[0], win[1])
		}
	}
}

// TestTrailerFaultinject sweeps the trailer bytes (satellite 4): every
// truncation and every bit flip inside the trailer must surface as a typed
// error on the strict path — never a panic, never silent — while the lenient
// path (DecodePartial) must still recover every chunk, since the index is
// only an accelerator.
func TestTrailerFaultinject(t *testing.T) {
	data, planes, _ := indexedStream(t)
	lay, err := Layout(data)
	if err != nil {
		t.Fatal(err)
	}
	trailerOff := lay.TrailerOff

	// Truncations that cut into the trailer (keep at least the payloads).
	trunc := faultinject.TruncationSweep(data, strictDecoder)
	requirePanicFree(t, "trailer truncation", trunc)
	for _, f := range trunc.Silent {
		if f.Offset > trailerOff {
			t.Fatalf("strict decode accepted trailer truncation %v", f)
		}
		if f.Offset != trailerOff {
			t.Fatalf("strict decode accepted truncation %v", f)
		}
		// data[:trailerOff] is exactly the un-indexed twin — a complete,
		// valid container. Accepting it is correct.
	}

	// Bit flips confined to the trailer: strict rejects every one with a
	// typed error, lenient recovers all planes.
	for off := trailerOff; off < len(data); off++ {
		for bit := 0; bit < 8; bit++ {
			bad := append([]byte(nil), data...)
			bad[off] ^= 1 << bit
			_, err := Decoder{Workers: 2}.Decode(context.Background(), bad)
			if err == nil {
				t.Fatalf("strict decode accepted trailer bitflip @%d.%d", off, bit)
			}
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrChecksum) {
				t.Fatalf("trailer bitflip @%d.%d: untyped error %v", off, bit, err)
			}
			res, perr := Decoder{Workers: 2}.DecodePartial(context.Background(), bad)
			if perr != nil {
				t.Fatalf("DecodePartial(trailer bitflip @%d.%d): %v", off, bit, perr)
			}
			if !res.OK() {
				t.Fatalf("DecodePartial lost chunks under trailer bitflip @%d.%d: %v", off, bit, res.Errors[0])
			}
			requirePlanesEqual(t, "lenient recovery under trailer damage", res.Planes, planes)
		}
	}
}
