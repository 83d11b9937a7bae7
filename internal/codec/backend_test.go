package codec

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/frame"
)

// ransTools is AllTools with the interleaved-rANS entropy backend selected.
func ransTools() Tools {
	t := AllTools
	t.Backend = BackendRANS
	return t
}

// TestRANSRoundTrip: every encode entry point routes rANS streams into the
// v3 container, they decode back, and — because the recorder adapts the
// CABAC contexts identically — the reconstructions are bit-identical to the
// CABAC backend's at the same settings.
func TestRANSRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	corpora := map[string][]*frame.Plane{
		"single small": {gradientPlane(rng, 48, 40)},
		"single tiny":  {gradientPlane(rng, 16, 16)},
		"multi chunk": {
			gradientPlane(rng, 64, 64), gradientPlane(rng, 64, 64),
			gradientPlane(rng, 64, 64), gradientPlane(rng, 64, 64),
			gradientPlane(rng, 64, 64), gradientPlane(rng, 64, 64),
			gradientPlane(rng, 64, 64), gradientPlane(rng, 64, 64),
			gradientPlane(rng, 64, 64),
		},
		"flat": {frame.NewPlane(64, 64)}, // all-zero source: many empty slots
	}
	for name, planes := range corpora {
		for _, prof := range []Profile{H264, HEVC} {
			data, st, err := Encoder{Profile: prof, Tools: ransTools(), Workers: 2, Container: ContainerChecksummed}.Encode(context.Background(), planes, 30)
			if err != nil {
				t.Fatalf("%s/%s: encode: %v", name, prof.Name, err)
			}
			if data[4] != versionChecksummed {
				t.Fatalf("%s/%s: rans stream has version %d, want %d", name, prof.Name, data[4], versionChecksummed)
			}
			if data[6]&toolsBackendExt == 0 {
				t.Fatalf("%s/%s: tools byte missing backend-extension bit", name, prof.Name)
			}
			got, err := Decoder{Workers: 2}.Decode(context.Background(), data)
			if err != nil {
				t.Fatalf("%s/%s: decode: %v", name, prof.Name, err)
			}
			cab, err := Decoder{Workers: 2}.Decode(context.Background(), mustEncode(t, planes, 30, prof, AllTools))
			if err != nil {
				t.Fatalf("%s/%s: cabac decode: %v", name, prof.Name, err)
			}
			for i := range got {
				if !got[i].Equal(cab[i]) {
					t.Fatalf("%s/%s: plane %d differs between rans and cabac reconstructions", name, prof.Name, i)
				}
			}
			if st.Pixels == 0 || st.Bits != len(data)*8 {
				t.Fatalf("%s/%s: stats %+v inconsistent with %d-byte stream", name, prof.Name, st, len(data))
			}
		}
	}

	// encodeSerial and ContainerAuto must also emit v3 (rANS needs the
	// header extension) and agree byte-for-byte with ContainerChecksummed.
	planes := corpora["multi chunk"]
	want, _, err := Encoder{Profile: HEVC, Tools: ransTools(), Workers: 1, Container: ContainerChecksummed}.Encode(context.Background(), planes, 30)
	if err != nil {
		t.Fatal(err)
	}
	viaSerial, _, err := encodeSerial(context.Background(), planes, 30, HEVC, ransTools(), nil)
	if err != nil {
		t.Fatal(err)
	}
	viaParallel, _, err := Encoder{Profile: HEVC, Tools: ransTools(), Workers: 4}.Encode(context.Background(), planes, 30)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(viaSerial, want) || !bytes.Equal(viaParallel, want) {
		t.Fatal("encodeSerial/ContainerAuto rans streams differ from ContainerChecksummed")
	}
}

func mustEncode(t *testing.T, planes []*frame.Plane, qp int, prof Profile, tools Tools) []byte {
	t.Helper()
	data, _, err := Encoder{Profile: prof, Tools: tools, Workers: 2, Container: ContainerChecksummed}.Encode(context.Background(), planes, qp)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestRANSDeterministicAcrossWorkers pins the scaling claim structurally:
// container bytes are identical for every encode worker count, and decodes
// at worker counts 1, 2, 4 and 8 (the last exercising parallel lane
// pre-decode, workers > chunks) reconstruct identical planes. Combined with
// rans.TestLaneIndependence this proves each chunk's states decode
// independently — the property a multi-core decoder exploits.
func TestRANSDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	planes := make([]*frame.Plane, 9)
	for i := range planes {
		planes[i] = gradientPlane(rng, 64, 64)
	}
	base, _, err := Encoder{Profile: HEVC, Tools: ransTools(), Workers: 1, Container: ContainerChecksummed}.Encode(context.Background(), planes, 30)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4, 8} {
		again, _, err := Encoder{Profile: HEVC, Tools: ransTools(), Workers: w, Container: ContainerChecksummed}.Encode(context.Background(), planes, 30)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, base) {
			t.Fatalf("rans encode differs at %d workers", w)
		}
	}
	ref, err := Decoder{Workers: 1}.Decode(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4, 8} {
		got, err := Decoder{Workers: w}.Decode(context.Background(), base)
		if err != nil {
			t.Fatalf("decode at %d workers: %v", w, err)
		}
		for i := range got {
			if !got[i].Equal(ref[i]) {
				t.Fatalf("decode at %d workers: plane %d differs", w, i)
			}
		}
	}
}

// ransHeaderLen computes the byte length of a v3 rANS container's header up
// to (not including) the header CRC, from its parsed geometry.
func ransHeaderLen(t *testing.T, data []byte) int {
	t.Helper()
	pc, err := parseContainer(data, false)
	if err != nil {
		t.Fatal(err)
	}
	return 8 + 2 + nCtxSlots + 4 + 8*len(pc.dims) + 4 + 12*len(pc.chunks)
}

// TestBackendByteTable sweeps all 256 values of the header's backend-id byte
// (offset 8, right after qp), recomputing the header CRC so the CRC check
// cannot mask the field validation: only BackendRANS's id decodes; every
// reserved value — including 0, since CABAC streams never carry the
// extension — is ErrCorrupt, never a panic and never misparsed as CABAC.
func TestBackendByteTable(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	planes := []*frame.Plane{gradientPlane(rng, 48, 40)}
	data, _, err := Encoder{Profile: HEVC, Tools: ransTools(), Workers: 1, Container: ContainerChecksummed}.Encode(context.Background(), planes, 30)
	if err != nil {
		t.Fatal(err)
	}
	hdrLen := ransHeaderLen(t, data)
	for id := 0; id < 256; id++ {
		bad := append([]byte(nil), data...)
		bad[8] = byte(id)
		binary.BigEndian.PutUint32(bad[hdrLen:], crc32.Checksum(bad[:hdrLen], crcTable))
		got, err := Decoder{Workers: 1}.Decode(context.Background(), bad)
		if id == int(BackendRANS) {
			if err != nil {
				t.Fatalf("backend id %d (rans): %v", id, err)
			}
			continue
		}
		if err == nil {
			t.Fatalf("backend id %d accepted (%d planes)", id, len(got))
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("backend id %d: got %v, want ErrCorrupt", id, err)
		}
	}
}

// TestBackendExtensionRequiresV3: hand-built v1 and v2 containers carrying
// the backend extension are structurally invalid — the encoder only ever
// emits rANS streams in the hardened container — and must be rejected as
// corrupt, not parsed as some hybrid framing.
func TestBackendExtensionRequiresV3(t *testing.T) {
	build := func(version byte) []byte {
		var b bytes.Buffer
		b.Write(magic[:])
		b.WriteByte(version)
		b.WriteByte(HEVC.id())
		b.WriteByte(ransTools().bits())
		b.WriteByte(30)
		b.WriteByte(byte(BackendRANS))
		b.WriteByte(nCtxSlots)
		for i := 0; i < nCtxSlots; i++ {
			b.WriteByte(128)
		}
		b.Write([]byte{0, 0, 0, 1})               // one frame
		b.Write([]byte{0, 0, 0, 16, 0, 0, 0, 16}) // 16×16
		if version == 1 {
			b.Write([]byte{0, 0, 0, 0}) // empty payload
		} else {
			b.Write([]byte{0, 0, 0, 1})             // one chunk
			b.Write([]byte{0, 0, 0, 1, 0, 0, 0, 0}) // 1 plane, 0 bytes
		}
		return b.Bytes()
	}
	for _, version := range []byte{1, 2} {
		_, err := Decoder{Workers: 1}.Decode(context.Background(), build(version))
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("v%d with backend extension: got %v, want ErrCorrupt", version, err)
		}
	}
}

// TestRANSFaultSweeps runs the repo's standard corruption sweeps over a
// valid rANS container: every truncation and every single-bit flip is
// rejected (the v3 integrity framing covers the extension and the payloads
// alike), every zeroed window is detected, and nothing panics.
func TestRANSFaultSweeps(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	planes := []*frame.Plane{gradientPlane(rng, 48, 40)}
	data, _, err := Encoder{Profile: HEVC, Tools: ransTools(), Workers: 1, Container: ContainerChecksummed}.Encode(context.Background(), planes, 30)
	if err != nil {
		t.Fatal(err)
	}

	res := faultinject.TruncationSweep(data, strictDecoder)
	requirePanicFree(t, "rans truncation", res)
	if len(res.Silent) != 0 {
		t.Fatalf("rans: %d truncations accepted, first %v", len(res.Silent), res.Silent[0])
	}

	res = faultinject.BitFlipSweep(data, 1, strictDecoder)
	requirePanicFree(t, "rans bitflip", res)
	if len(res.Silent) != 0 {
		t.Fatalf("rans: %d bit flips undetected, first %v", len(res.Silent), res.Silent[0])
	}

	res = faultinject.ZeroRunSweep(data, 16, strictDecoder)
	requirePanicFree(t, "rans zerorun", res)
	if len(res.Silent) != 0 {
		t.Fatalf("rans: %d zeroed windows undetected, first %v", len(res.Silent), res.Silent[0])
	}
}

// TestRANSPayloadStrictness bypasses the container CRC to hit the payload
// parser's own validation: with the chunk CRC recomputed over the damaged
// payload, the rANS layer itself must reject bin-count inflation and
// trailing bytes (the strict drain-everything rule).
func TestRANSPayloadStrictness(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	planes := []*frame.Plane{gradientPlane(rng, 48, 40)}
	data, _, err := Encoder{Profile: HEVC, Tools: ransTools(), Workers: 1, Container: ContainerChecksummed}.Encode(context.Background(), planes, 30)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := parseContainer(data, false)
	if err != nil {
		t.Fatal(err)
	}
	payload := pc.chunks[0].payload
	payStart := ransHeaderLen(t, data) + 4

	// Rebuild the container around a modified payload of the same length,
	// fixing the chunk CRC and header CRC so only the rANS parser stands.
	reseal := func(mut func(p []byte)) []byte {
		bad := append([]byte(nil), data...)
		mut(bad[payStart : payStart+len(payload)])
		hdrLen := payStart - 4
		// chunk table entry: planeCount|payloadLen|payloadCRC, one chunk.
		crcOff := 8 + 2 + nCtxSlots + 4 + 8*len(pc.dims) + 4 + 8
		binary.BigEndian.PutUint32(bad[crcOff:], crc32.Checksum(bad[payStart:payStart+len(payload)], crcTable))
		binary.BigEndian.PutUint32(bad[hdrLen:], crc32.Checksum(bad[:hdrLen], crcTable))
		return bad
	}

	// Damaging the final state segment's last byte must be caught by the
	// strict rANS Close (state must return to its initial value).
	bad := reseal(func(p []byte) { p[len(p)-1] ^= 0xFF })
	if _, err := (Decoder{Workers: 1}).Decode(context.Background(), bad); err == nil {
		t.Fatal("damaged final rans segment byte accepted")
	} else if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTruncated) {
		t.Fatalf("damaged segment: untyped error %v", err)
	}

	// Flipping a bit in the bypass window changes signs/suffixes but not the
	// segment framing; the decode must either reject it or at minimum not
	// panic — under the recomputed CRCs we only demand typed behavior.
	bad = reseal(func(p []byte) { p[1] ^= 0x01 })
	if _, err := (Decoder{Workers: 1}).Decode(context.Background(), bad); err != nil {
		if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTruncated) {
			t.Fatalf("bypass flip: untyped error %v", err)
		}
	}
}

// TestRANSBitrateNearCABAC is the codec-level sanity band backing the bench
// guard: on a dense operating point (qp 16, where payload bits dominate the
// fixed table/framing overhead) the rANS container must stay within 5% of
// the CABAC container. The tighter 2% band over the full bench corpus is
// enforced by `make bench-guard` (BENCH_baseline.json, backends section).
func TestRANSBitrateNearCABAC(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	planes := make([]*frame.Plane, 4)
	for i := range planes {
		planes[i] = gradientPlane(rng, 128, 128)
	}
	cab, _, err := Encoder{Profile: HEVC, Tools: AllTools, Workers: 2, Container: ContainerChecksummed}.Encode(context.Background(), planes, 16)
	if err != nil {
		t.Fatal(err)
	}
	rns, _, err := Encoder{Profile: HEVC, Tools: ransTools(), Workers: 2, Container: ContainerChecksummed}.Encode(context.Background(), planes, 16)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(len(rns)) / float64(len(cab))
	if ratio > 1.05 {
		t.Fatalf("rans container is %.1f%% of cabac (%d vs %d bytes), want ≤ 105%%",
			ratio*100, len(rns), len(cab))
	}
	t.Logf("rans/cabac container ratio at qp16: %.4f (%d vs %d bytes)", ratio, len(rns), len(cab))
}

// TestRANSRequiresEntropyStage: selecting the rANS backend with the entropy
// stage ablated away is a caller error, rejected up front.
func TestRANSRequiresEntropyStage(t *testing.T) {
	tools := ransTools()
	tools.CABAC = false
	planes := []*frame.Plane{frame.NewPlane(16, 16)}
	if _, _, err := (Encoder{Profile: HEVC, Tools: tools, Workers: 1, Container: ContainerChecksummed}).Encode(context.Background(), planes, 30); err == nil {
		t.Fatal("rans without entropy stage accepted")
	}
	if _, _, err := encodeSerial(context.Background(), planes, 30, HEVC, tools, nil); err == nil {
		t.Fatal("rans without entropy stage accepted by Encode")
	}
}
