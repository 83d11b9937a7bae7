// Benchmarks regenerating every table and figure of the paper (one bench per
// artifact) plus codec micro-benchmarks. The experiment benches run the same
// code as `go run ./cmd/experiments`; each iteration regenerates the
// artifact, so run them with a bounded -benchtime, e.g.:
//
//	go test -bench=BenchmarkFig5 -benchtime=1x
package repro_test

import (
	"context"
	"io"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/frame"
	"repro/internal/quant"
	"repro/internal/tensorgen"
)

var (
	ctxOnce sync.Once
	ctx     *experiments.Ctx
)

// benchCtx returns the shared quick-mode experiment context; reference-model
// training happens once and is excluded from timings via b.ResetTimer.
func benchCtx(b *testing.B) *experiments.Ctx {
	b.Helper()
	ctxOnce.Do(func() {
		ctx = experiments.NewCtx(true)
	})
	return ctx
}

func benchExperiment(b *testing.B, id string) {
	r, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	c := benchCtx(b)
	// Warm the shared caches (corpus, models) outside the timed region.
	c.Corpus()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := r.Run(c)
		t.Render(io.Discard)
	}
}

// One benchmark per paper artifact.
func BenchmarkFig2PipelineAblation(b *testing.B)  { benchExperiment(b, "fig2") }
func BenchmarkFig3DCTOutliers(b *testing.B)       { benchExperiment(b, "fig3") }
func BenchmarkFig4IntraWalkthrough(b *testing.B)  { benchExperiment(b, "fig4") }
func BenchmarkFig5WeightCompression(b *testing.B) { benchExperiment(b, "fig5") }
func BenchmarkTable1LowBit70B(b *testing.B)       { benchExperiment(b, "table1") }
func BenchmarkFig6CodecSelection(b *testing.B)    { benchExperiment(b, "fig6") }
func BenchmarkTable2SupportMatrix(b *testing.B)   { benchExperiment(b, "table2") }
func BenchmarkFig7OtherFamilies(b *testing.B)     { benchExperiment(b, "fig7") }
func BenchmarkFig8KVCache(b *testing.B)           { benchExperiment(b, "fig8") }
func BenchmarkFig9PipelineTraining(b *testing.B)  { benchExperiment(b, "fig9") }
func BenchmarkFig10DataParallel(b *testing.B)     { benchExperiment(b, "fig10") }
func BenchmarkFig11TrainedQuality(b *testing.B)   { benchExperiment(b, "fig11") }
func BenchmarkFig12DieArea(b *testing.B)          { benchExperiment(b, "fig12") }
func BenchmarkTable3Energy(b *testing.B)          { benchExperiment(b, "table3") }
func BenchmarkFig14BaselineGrid(b *testing.B)     { benchExperiment(b, "fig14") }
func BenchmarkFig15SystemAreaEnergy(b *testing.B) { benchExperiment(b, "fig15") }
func BenchmarkFig16ClusterModel(b *testing.B)     { benchExperiment(b, "fig16") }
func BenchmarkThroughputMeasurement(b *testing.B) { benchExperiment(b, "throughput") }

// Codec micro-benchmarks: tensor-side encode/decode throughput, the §6.1
// quantity the hardware engines bound at 1100/1300 MB/s.
func BenchmarkEncodeThroughput(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 256
	w := tensorgen.Weights(rng, n, n)
	pix, _, _ := quant.ToUint8(w)
	planes := frame.FromMatrix(pix, n, n, 1024, 1024)
	b.SetBytes(int64(n * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := (codec.Encoder{Profile: codec.HEVC, Tools: codec.AllTools}).Encode(context.Background(), planes, 26); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeThroughput(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	n := 256
	w := tensorgen.Weights(rng, n, n)
	pix, _, _ := quant.ToUint8(w)
	planes := frame.FromMatrix(pix, n, n, 1024, 1024)
	stream, _, err := codec.Encoder{Profile: codec.HEVC, Tools: codec.AllTools}.Encode(context.Background(), planes, 26)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(n * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (codec.Decoder{}).Decode(context.Background(), stream); err != nil {
			b.Fatal(err)
		}
	}
}

// stackPlanes builds a multi-layer weight stack as codec planes — the
// workload the parallel engine fans out across its worker pool.
func stackPlanes(seed int64, layers, n int) []*frame.Plane {
	rng := rand.New(rand.NewSource(seed))
	var planes []*frame.Plane
	for l := 0; l < layers; l++ {
		pix, _, _ := quant.ToUint8(tensorgen.Weights(rng, n, n))
		planes = append(planes, frame.FromMatrix(pix, n, n, 1024, 1024)...)
	}
	return planes
}

// Parallel-vs-serial engine benchmarks on a multi-layer stack. The chunked
// container is byte-identical for every worker count, so these measure pure
// scheduling gains; compare MB/s:
//
//	go test -bench='EncodeStack(Serial|Parallel)' -benchtime=2x
func benchEncodeStack(b *testing.B, workers int) {
	planes := stackPlanes(5, 8, 256)
	b.SetBytes(int64(8 * 256 * 256))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := (codec.Encoder{Profile: codec.HEVC, Tools: codec.AllTools, Workers: workers}).Encode(context.Background(), planes, 26); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeStackSerial(b *testing.B)   { benchEncodeStack(b, 1) }
func BenchmarkEncodeStackParallel(b *testing.B) { benchEncodeStack(b, 0) }

func benchDecodeStack(b *testing.B, workers int) {
	planes := stackPlanes(6, 8, 256)
	stream, _, err := codec.Encoder{Profile: codec.HEVC, Tools: codec.AllTools}.Encode(context.Background(), planes, 26)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(8 * 256 * 256))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (codec.Decoder{Workers: workers}).Decode(context.Background(), stream); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeStackSerial(b *testing.B)   { benchDecodeStack(b, 1) }
func BenchmarkDecodeStackParallel(b *testing.B) { benchDecodeStack(b, 0) }

// BenchmarkStackRoundTripParallel measures the full core path (8-bit map,
// parallel encode, parallel decode, dequantize) on a layer stack.
func BenchmarkStackRoundTripParallel(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	layers, n := 6, 192
	stack := make([]*core.Tensor, layers)
	for l := range stack {
		stack[l] = core.FromSlice(n, n, tensorgen.Weights(rng, n, n))
	}
	o := core.DefaultOptions() // Workers: 0 → GOMAXPROCS
	b.SetBytes(int64(layers * n * n * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := o.EncodeStack(stack, 26)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := o.DecodeStack(e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTensorRoundTrip measures the full float path: 8-bit mapping,
// encode, decode, dequantize.
func BenchmarkTensorRoundTrip(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	n := 128
	t := core.FromSlice(n, n, tensorgen.Weights(rng, n, n))
	o := core.DefaultOptions()
	b.SetBytes(int64(n * n * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := o.Roundtrip(t, 26); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRateControl measures the cost of the fractional-bitrate search.
func BenchmarkRateControl(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	n := 128
	t := core.FromSlice(n, n, tensorgen.Weights(rng, n, n))
	o := core.DefaultOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := o.EncodeToBitrate(t, 2.9); err != nil {
			b.Fatal(err)
		}
	}
}
