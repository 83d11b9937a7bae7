package codec

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/frame"
)

// corpusStreams builds one valid container of each version, small enough
// that exhaustive fault sweeps stay fast: v1 (single chunk), v2 (multi-chunk
// unchecksummed) and v3 (multi-chunk checksummed). The same plane content
// feeds v2 and v3 so their payload bytes agree.
func corpusStreams(t testing.TB) (v1, v2, v3 []byte, v23Planes []*frame.Plane) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))

	single := []*frame.Plane{gradientPlane(rng, 48, 40)}
	v1, _, err := Encoder{Profile: HEVC, Tools: AllTools, Workers: 1}.Encode(context.Background(), single, 30)
	if err != nil {
		t.Fatal(err)
	}
	if v1[4] != 1 {
		t.Fatalf("single-chunk encode emitted version %d, want 1", v1[4])
	}

	// Nine 64×64 planes: the greedy partition closes a chunk at 8×4096 =
	// 32768 px, so this yields two chunks (8 planes + 1 plane).
	v23Planes = make([]*frame.Plane, 9)
	for i := range v23Planes {
		v23Planes[i] = gradientPlane(rng, 64, 64)
	}
	v2, _, err = Encoder{Profile: HEVC, Tools: AllTools, Workers: 2}.Encode(context.Background(), v23Planes, 30)
	if err != nil {
		t.Fatal(err)
	}
	if v2[4] != versionChunked {
		t.Fatalf("multi-chunk encode emitted version %d, want %d", v2[4], versionChunked)
	}
	v3, _, err = Encoder{Profile: HEVC, Tools: AllTools, Workers: 2, Container: ContainerChecksummed}.Encode(context.Background(), v23Planes, 30)
	if err != nil {
		t.Fatal(err)
	}
	if v3[4] != versionChecksummed {
		t.Fatalf("checksummed encode emitted version %d, want %d", v3[4], versionChecksummed)
	}
	return v1, v2, v3, v23Planes
}

// strictDecoder adapts Decoder.Decode to the fault-injection signature.
func strictDecoder(data []byte) error {
	_, err := Decoder{Workers: 1}.Decode(context.Background(), data)
	return err
}

// requirePanicFree fails the test if any trial of a sweep panicked.
func requirePanicFree(t *testing.T, label string, res faultinject.Result) {
	t.Helper()
	if !res.Clean() {
		t.Fatalf("%s: %d/%d trials PANICKED, first: %v (payload %v)",
			label, len(res.Panics), res.Trials, res.Panics[0], res.Panics[0].Panic)
	}
	if res.Trials == 0 {
		t.Fatalf("%s: sweep ran zero trials", label)
	}
}

// TestTruncationSweepAllVersions proves the headline truncation invariant:
// every strict prefix of a valid container — all three versions — is
// rejected with a typed error and never panics.
func TestTruncationSweepAllVersions(t *testing.T) {
	v1, v2, v3, _ := corpusStreams(t)
	for _, tc := range []struct {
		name string
		data []byte
	}{{"v1", v1}, {"v2", v2}, {"v3", v3}} {
		res := faultinject.TruncationSweep(tc.data, strictDecoder)
		requirePanicFree(t, tc.name+" truncation", res)
		if len(res.Silent) != 0 {
			t.Fatalf("%s: %d truncations accepted, first: %v",
				tc.name, len(res.Silent), res.Silent[0])
		}
		if res.Rejected != res.Trials {
			t.Fatalf("%s: %d of %d truncations rejected", tc.name, res.Rejected, res.Trials)
		}
		// Spot-check the error taxonomy on a mid-payload truncation.
		_, err := Decoder{Workers: 1}.Decode(context.Background(), tc.data[:len(tc.data)-1])
		if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrChecksum) {
			t.Fatalf("%s: untyped truncation error %v", tc.name, err)
		}
	}
}

// TestBitFlipSweepNeverPanics proves the headline bit-flip invariant for the
// unchecksummed versions: no single-bit flip anywhere in a v1/v2 container
// can panic the decoder. (Payload flips may decode silently to different
// pixels — that is exactly the gap version 3 closes.)
func TestBitFlipSweepNeverPanics(t *testing.T) {
	v1, v2, _, _ := corpusStreams(t)
	for _, tc := range []struct {
		name   string
		data   []byte
		stride int
	}{
		{"v1", v1, 1},
		{"v2", v2, 3}, // every bit of every 3rd byte keeps the sweep fast
	} {
		res := faultinject.BitFlipSweep(tc.data, tc.stride, strictDecoder)
		requirePanicFree(t, tc.name+" bitflip", res)
	}
}

// TestV3DetectsEveryBitFlip proves the integrity guarantee of the
// checksummed container: every single-bit flip, at every byte offset —
// header, dim table, chunk table, CRC fields and payloads — is rejected.
// Zero silent acceptances.
func TestV3DetectsEveryBitFlip(t *testing.T) {
	_, _, v3, _ := corpusStreams(t)
	res := faultinject.BitFlipSweep(v3, 1, strictDecoder)
	if !res.Clean() {
		t.Fatalf("v3 bitflip: %d panics, first %v: %v", len(res.Panics), res.Panics[0], res.Panics[0].Panic)
	}
	if len(res.Silent) != 0 {
		t.Fatalf("v3: %d single-bit flips went UNDETECTED, first: %v", len(res.Silent), res.Silent[0])
	}
	if res.Rejected != res.Trials || res.Trials != 8*len(v3) {
		t.Fatalf("v3: rejected %d of %d trials (stream %d bytes)", res.Rejected, res.Trials, len(v3))
	}

	// Payload flips specifically must surface as ErrChecksum: find the
	// payload start (everything after the header CRC) and flip a byte there.
	payloadStart := payloadOffset(t, v3)
	bad := append([]byte(nil), v3...)
	bad[payloadStart+3] ^= 0x10
	if _, err := (Decoder{Workers: 1}).Decode(context.Background(), bad); !errors.Is(err, ErrChecksum) {
		t.Fatalf("payload flip: got %v, want ErrChecksum", err)
	}
	// A structurally plausible header flip — one that earlier bounds checks
	// cannot catch — must surface as ErrChecksum via the header CRC. Flip the
	// low bit of the first dim width (64 → 65, still in range): only the CRC
	// knows it is wrong.
	bad = append([]byte(nil), v3...)
	bad[15] ^= 0x01
	if _, err := (Decoder{Workers: 1}).Decode(context.Background(), bad); !errors.Is(err, ErrChecksum) {
		t.Fatalf("header flip: got %v, want ErrChecksum", err)
	}
}

// TestZeroRunSweepNeverPanics models DMA-style zeroed windows on the v3
// container: every 16-byte zero run is detected, none panics.
func TestZeroRunSweepNeverPanics(t *testing.T) {
	_, _, v3, _ := corpusStreams(t)
	res := faultinject.ZeroRunSweep(v3, 16, strictDecoder)
	if !res.Clean() {
		t.Fatalf("zerorun: %d panics, first %v", len(res.Panics), res.Panics[0])
	}
	if len(res.Silent) != 0 {
		t.Fatalf("zerorun: %d zeroed windows undetected, first %v", len(res.Silent), res.Silent[0])
	}
}

// payloadOffset computes the offset of the first payload byte of a v3
// container from its header fields.
func payloadOffset(t *testing.T, v3 []byte) int {
	t.Helper()
	pc, err := parseContainer(v3, false)
	if err != nil {
		t.Fatal(err)
	}
	nPlanes := len(pc.dims)
	return 8 + 4 + 8*nPlanes + 4 + 12*len(pc.chunks) + 4
}

// TestValidStreamsStillRoundTrip pins that hardening changed nothing for
// intact streams: all three versions decode, v2 and v3 reconstruct
// identically (same payload bytes), and encode remains deterministic across
// worker counts — byte-identical containers for 1 and 4 workers.
func TestValidStreamsStillRoundTrip(t *testing.T) {
	v1, v2, v3, planes := corpusStreams(t)
	if _, err := (Decoder{Workers: 1}).Decode(context.Background(), v1); err != nil {
		t.Fatalf("v1 decode: %v", err)
	}
	p2, err := Decoder{Workers: 2}.Decode(context.Background(), v2)
	if err != nil {
		t.Fatalf("v2 decode: %v", err)
	}
	p3, err := Decoder{Workers: 2}.Decode(context.Background(), v3)
	if err != nil {
		t.Fatalf("v3 decode: %v", err)
	}
	if len(p2) != len(planes) || len(p3) != len(planes) {
		t.Fatalf("plane counts: v2=%d v3=%d want %d", len(p2), len(p3), len(planes))
	}
	for i := range p2 {
		if !p2[i].Equal(p3[i]) {
			t.Fatalf("plane %d differs between v2 and v3 decode", i)
		}
	}
	for _, workers := range []int{1, 4} {
		again, _, err := Encoder{Profile: HEVC, Tools: AllTools, Workers: workers, Container: ContainerChecksummed}.Encode(context.Background(), planes, 30)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, v3) {
			t.Fatalf("ContainerChecksummed not deterministic at %d workers", workers)
		}
	}
}

// TestDecodePartialRecoversUndamagedChunks proves the graceful-degradation
// guarantee: with one chunk's payload corrupted, DecodePartial returns every
// plane of every other chunk bit-identically to a clean decode, and reports
// the damaged chunk as ErrChecksum.
func TestDecodePartialRecoversUndamagedChunks(t *testing.T) {
	_, _, v3, _ := corpusStreams(t)
	clean, err := Decoder{Workers: 1}.Decode(context.Background(), v3)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := parseContainer(v3, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(pc.chunks) < 2 {
		t.Fatalf("need ≥2 chunks, got %d", len(pc.chunks))
	}

	for damaged := 0; damaged < len(pc.chunks); damaged++ {
		// Corrupt one byte in the middle of chunk `damaged`'s payload.
		bad := append([]byte(nil), v3...)
		off := payloadOffset(t, v3)
		for i := 0; i < damaged; i++ {
			off += len(pc.chunks[i].payload)
		}
		bad[off+len(pc.chunks[damaged].payload)/2] ^= 0x40

		res, err := Decoder{Workers: 2}.DecodePartial(context.Background(), bad)
		if err != nil {
			t.Fatalf("chunk %d damaged: DecodePartial top-level error %v", damaged, err)
		}
		if len(res.Errors) != 1 || res.Errors[0].Chunk != damaged {
			t.Fatalf("chunk %d damaged: errors %v", damaged, res.Errors)
		}
		if !errors.Is(res.Errors[0], ErrChecksum) {
			t.Fatalf("chunk %d damaged: error %v, want ErrChecksum", damaged, res.Errors[0])
		}
		ch := pc.chunks[damaged]
		for i, p := range res.Planes {
			inDamaged := i >= ch.planeBase && i < ch.planeBase+len(ch.dims)
			switch {
			case inDamaged && p != nil:
				t.Fatalf("chunk %d damaged: plane %d should be nil", damaged, i)
			case !inDamaged && p == nil:
				t.Fatalf("chunk %d damaged: plane %d lost", damaged, i)
			case !inDamaged && !p.Equal(clean[i]):
				t.Fatalf("chunk %d damaged: plane %d differs from clean decode", damaged, i)
			}
		}
		if res.Recovered() != len(clean)-len(ch.dims) {
			t.Fatalf("chunk %d damaged: recovered %d planes", damaged, res.Recovered())
		}
	}
}

// TestDecodePartialTruncatedTail: cutting the stream inside the last chunk
// still recovers every earlier chunk and reports the tail as truncated.
func TestDecodePartialTruncatedTail(t *testing.T) {
	_, _, v3, _ := corpusStreams(t)
	pc, err := parseContainer(v3, false)
	if err != nil {
		t.Fatal(err)
	}
	last := len(pc.chunks) - 1
	cut := len(v3) - len(pc.chunks[last].payload)/2
	res, err := Decoder{Workers: 1}.DecodePartial(context.Background(), v3[:cut])
	if err != nil {
		t.Fatalf("top-level error: %v", err)
	}
	if len(res.Errors) != 1 || res.Errors[0].Chunk != last || !errors.Is(res.Errors[0], ErrTruncated) {
		t.Fatalf("errors %v, want chunk %d ErrTruncated", res.Errors, last)
	}
	for i := 0; i < pc.chunks[last].planeBase; i++ {
		if res.Planes[i] == nil {
			t.Fatalf("plane %d lost to tail truncation", i)
		}
	}
}

// TestDecodePartialOnCleanStreams: DecodePartial is a drop-in for Decode on
// undamaged input, for every version.
func TestDecodePartialOnCleanStreams(t *testing.T) {
	v1, v2, v3, _ := corpusStreams(t)
	for _, tc := range []struct {
		name string
		data []byte
	}{{"v1", v1}, {"v2", v2}, {"v3", v3}} {
		strict, err := Decoder{Workers: 1}.Decode(context.Background(), tc.data)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Decoder{Workers: 1}.DecodePartial(context.Background(), tc.data)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !res.OK() || res.Recovered() != len(strict) {
			t.Fatalf("%s: partial decode lost planes on clean input: %+v", tc.name, res.Errors)
		}
		for i := range strict {
			if !strict[i].Equal(res.Planes[i]) {
				t.Fatalf("%s: plane %d differs", tc.name, i)
			}
		}
	}
}

// TestAllocationCapRejectsForgedDims: a tiny stream claiming absurd pixel
// totals is rejected before any allocation (the 20-byte-stream-claiming-2³¹-
// pixels scenario).
func TestAllocationCapRejectsForgedDims(t *testing.T) {
	// Hand-build a v1 header claiming 5 frames of 8192×8192 (320 Mpx >
	// maxDecodePixels) with no payload behind it.
	var b bytes.Buffer
	b.Write(magic[:])
	b.WriteByte(1)
	b.WriteByte(HEVC.id())
	b.WriteByte(AllTools.bits())
	b.WriteByte(26)
	b.Write([]byte{0, 0, 0, 5})
	for i := 0; i < 5; i++ {
		b.Write([]byte{0, 0, 32, 0, 0, 0, 32, 0}) // 8192 × 8192
	}
	b.Write([]byte{0, 0, 0, 0})
	if _, err := (Decoder{Workers: 1}).Decode(context.Background(), b.Bytes()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("forged 320Mpx header: got %v, want ErrCorrupt", err)
	}

	// And a dim beyond the profile frame limit is rejected outright.
	var c bytes.Buffer
	c.Write(magic[:])
	c.WriteByte(1)
	c.WriteByte(HEVC.id())
	c.WriteByte(AllTools.bits())
	c.WriteByte(26)
	c.Write([]byte{0, 0, 0, 1})
	c.Write([]byte{0x7F, 0xFF, 0xFF, 0xFF, 0, 0, 0, 16}) // 2³¹-1 wide
	c.Write([]byte{0, 0, 0, 0})
	if _, err := (Decoder{Workers: 1}).Decode(context.Background(), c.Bytes()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("forged 2³¹ dim: got %v, want ErrCorrupt", err)
	}
}
