package codec

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"repro/internal/frame"
	"repro/internal/obs"
)

// metricsPlanes builds n planes big enough that chunkSpans assigns each a
// chunk of its own (>= minChunkPixels), so the chunked container and its
// worker pool — not the single-chunk v1 fallback — are what gets measured.
func metricsPlanes(n int) []*frame.Plane {
	rng := rand.New(rand.NewSource(42))
	planes := make([]*frame.Plane, n)
	for i := range planes {
		planes[i] = channelPlane(rng, 192, 192)
	}
	return planes
}

// TestMetricsPopulateOnEncodeDecode checks the taxonomy end to end: a
// round-trip with a live registry populates the geometry counters, the
// per-stage histograms, the bit accounts and the pool stats, with the bit
// accounts consistent with the emitted stream.
func TestMetricsPopulateOnEncodeDecode(t *testing.T) {
	planes := metricsPlanes(3)
	reg := obs.NewRegistry()
	data, st, err := Encoder{Profile: HEVC, Tools: AllTools, Workers: 2, Metrics: reg}.Encode(context.Background(), planes, 30)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (Decoder{Workers: 2, Metrics: reg}).Decode(context.Background(), data); err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()

	for _, c := range []string{
		"codec.encode.calls", "codec.encode.planes", "codec.encode.pixels",
		"codec.encode.chunks", "codec.encode.bytes",
		"codec.encode.bits.container", "codec.encode.bits.residual",
		"codec.encode.pool.busy_ns", "codec.encode.pool.wall_ns",
		"codec.decode.calls", "codec.decode.planes", "codec.decode.chunks",
		"codec.decode.pool.busy_ns", "codec.decode.pool.wall_ns",
	} {
		if s.Counters[c] <= 0 {
			t.Errorf("counter %s = %d, want > 0", c, s.Counters[c])
		}
	}
	for _, h := range []string{
		"codec.encode.stage.intra_search_ns", "codec.encode.stage.transform_quant_ns",
		"codec.encode.stage.entropy_ns", "codec.encode.stage.container_ns",
		"codec.encode.chunk_ns", "codec.encode.pool.workers",
		"codec.decode.stage.parse_ns", "codec.decode.chunk_ns",
	} {
		if s.Histograms[h].Count <= 0 {
			t.Errorf("histogram %s empty", h)
		}
	}
	if got := s.Counters["codec.encode.planes"]; got != 3 {
		t.Errorf("encode.planes = %d, want 3", got)
	}
	if got := s.Counters["codec.encode.pixels"]; got != 3*192*192 {
		t.Errorf("encode.pixels = %d, want %d", got, 3*192*192)
	}
	if got := s.Counters["codec.encode.bytes"]; got != int64(len(data)) {
		t.Errorf("encode.bytes = %d, want stream length %d", got, len(data))
	}
	if got := s.Counters["codec.encode.chunks"]; got != int64(st.Chunks) {
		t.Errorf("encode.chunks = %d, want Stats.Chunks %d", got, st.Chunks)
	}
	// Bit accounts must stay within the stream: framing plus all syntax
	// sites can never exceed the emitted bits, and must cover most of them
	// (the only unattributed bits are per-chunk entropy-coder flush slack).
	attributed := s.Counters["codec.encode.bits.container"] +
		s.Counters["codec.encode.bits.partition"] +
		s.Counters["codec.encode.bits.mode"] +
		s.Counters["codec.encode.bits.residual"]
	total := int64(len(data)) * 8
	if attributed > total {
		t.Errorf("attributed bits %d exceed stream bits %d", attributed, total)
	}
	if attributed < total-64*int64(st.Chunks) {
		t.Errorf("attributed bits %d leave > %d bits/chunk unaccounted (stream %d)",
			attributed, 64, total)
	}
	// No decode errors on a clean stream.
	for _, c := range []string{
		"codec.decode.errors.corrupt", "codec.decode.errors.truncated",
		"codec.decode.errors.checksum",
	} {
		if s.Counters[c] != 0 {
			t.Errorf("clean decode bumped %s = %d", c, s.Counters[c])
		}
	}
	// Utilization is well-formed: busy <= wall.
	if b, w := s.Counters["codec.encode.pool.busy_ns"], s.Counters["codec.encode.pool.wall_ns"]; b > w {
		t.Errorf("encode pool busy %d > wall %d", b, w)
	}
}

// TestMetricsDoNotChangeBytes proves instrumentation is observational: the
// emitted stream is byte-identical with metrics off, metrics on, and any
// worker count.
func TestMetricsDoNotChangeBytes(t *testing.T) {
	planes := metricsPlanes(3)
	want, _, err := Encoder{Profile: HEVC, Tools: AllTools, Workers: 1}.Encode(context.Background(), planes, 30)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3} {
		got, _, err := Encoder{Profile: HEVC, Tools: AllTools, Workers: workers, Metrics: obs.NewRegistry()}.Encode(context.Background(), planes, 30)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("metrics changed bytes at %d workers", workers)
		}
	}
	// Serial entry point too.
	got, _, err := encodeSerial(context.Background(), planes[:1], 30, HEVC, AllTools, newEncMetrics(obs.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	plain, _, err := encodeSerial(context.Background(), planes[:1], 30, HEVC, AllTools, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, plain) {
		t.Fatal("metrics changed serial encode bytes")
	}
}

// TestMetricsErrorTaxonomy checks that decode failures land on the right
// taxonomy counter, and that partial decode accounts its losses.
func TestMetricsErrorTaxonomy(t *testing.T) {
	planes := metricsPlanes(3)
	v3, _, err := Encoder{Profile: HEVC, Tools: AllTools, Workers: 2, Container: ContainerChecksummed}.Encode(context.Background(), planes, 30)
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	// Truncated: cut the stream mid-payload.
	if _, err := (Decoder{Workers: 1, Metrics: reg}).Decode(context.Background(), v3[:len(v3)-9]); err == nil {
		t.Fatal("truncated stream decoded")
	}
	// Checksum: flip a bit in the last chunk's payload.
	bad := append([]byte(nil), v3...)
	bad[len(bad)-9] ^= 0x10
	if _, err := (Decoder{Workers: 1, Metrics: reg}).Decode(context.Background(), bad); err == nil {
		t.Fatal("damaged stream decoded")
	}
	// Corrupt: garbage magic.
	if _, err := (Decoder{Workers: 1, Metrics: reg}).Decode(context.Background(), []byte("not a stream at all")); err == nil {
		t.Fatal("garbage decoded")
	}
	s := reg.Snapshot()
	if s.Counters["codec.decode.errors.truncated"] != 1 {
		t.Errorf("errors.truncated = %d, want 1", s.Counters["codec.decode.errors.truncated"])
	}
	if s.Counters["codec.decode.errors.checksum"] != 1 {
		t.Errorf("errors.checksum = %d, want 1", s.Counters["codec.decode.errors.checksum"])
	}
	if s.Counters["codec.decode.errors.corrupt"] != 1 {
		t.Errorf("errors.corrupt = %d, want 1", s.Counters["codec.decode.errors.corrupt"])
	}

	// Partial decode on the checksum-damaged stream: one chunk lost, its
	// planes accounted, the taxonomy bumped.
	reg2 := obs.NewRegistry()
	res, err := Decoder{Workers: 1, Metrics: reg2}.DecodePartial(context.Background(), bad)
	if err != nil {
		t.Fatal(err)
	}
	s2 := reg2.Snapshot()
	if got := s2.Counters["codec.decode.partial.chunks_lost"]; got != int64(len(res.Errors)) {
		t.Errorf("partial.chunks_lost = %d, want %d", got, len(res.Errors))
	}
	lostPlanes := int64(len(res.Planes) - res.Recovered())
	if got := s2.Counters["codec.decode.partial.planes_lost"]; got != lostPlanes {
		t.Errorf("partial.planes_lost = %d, want %d", got, lostPlanes)
	}
	if s2.Counters["codec.decode.errors.checksum"] == 0 {
		t.Error("partial decode did not classify the chunk failure")
	}
}

// BenchmarkEncodeDisabledMetrics measures the instrumented entry point with
// a nil registry on the exact BenchmarkEncodeHEVC workload (same seed,
// geometry and QP); compare the two to verify the zero-cost-when-disabled
// contract — the ns/op delta should be within run-to-run noise.
func BenchmarkEncodeDisabledMetrics(b *testing.B) {
	rng := rand.New(rand.NewSource(16))
	p := gradientPlane(rng, 128, 128)
	b.SetBytes(int64(p.W * p.H))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := encodeSerial(context.Background(), []*frame.Plane{p}, 28, HEVC, AllTools, newEncMetrics(nil)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeEnabledMetrics is the same workload with a live registry,
// bounding the cost of enabling collection.
func BenchmarkEncodeEnabledMetrics(b *testing.B) {
	rng := rand.New(rand.NewSource(16))
	p := gradientPlane(rng, 128, 128)
	reg := obs.NewRegistry()
	b.SetBytes(int64(p.W * p.H))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := encodeSerial(context.Background(), []*frame.Plane{p}, 28, HEVC, AllTools, newEncMetrics(reg)); err != nil {
			b.Fatal(err)
		}
	}
}
