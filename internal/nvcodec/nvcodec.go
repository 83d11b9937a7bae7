// Package nvcodec models the GPU hardware video engines (NVENC/NVDEC) that
// LLM.265 runs on: their codec support matrix by GPU generation (Table 2),
// frame-size limits, 8-bit-input constraint, engine counts, and measured
// tensor throughput (§6.1: ≈1100 MB/s encode, ≈1300 MB/s decode per engine).
// The actual compression runs through the pure-Go codec; this package adds
// the device-level constraints and timing model, substituting for the real
// hardware (DESIGN.md §2).
//
// Frames/tiles on real silicon are processed by parallel hardware engines —
// recent generations ship multiple NVENC/NVDEC instances — so Device.Encode
// and Device.Decode fan independent planes out across the modeled engine
// count (via the codec's parallel engine) and report the schedule makespan
// as the wall time, not the serial sum.
package nvcodec

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/codec"
	"repro/internal/frame"
	"repro/internal/obs"
)

// Support describes one codec's capability on a GPU generation.
type Support struct {
	MaxDim int  // maximum frame edge (4K = 4096, 8K = 8192)
	Encode bool // hardware encode available
	Decode bool
}

// Generation is a GPU generation's video-engine capability set (Table 2).
type Generation struct {
	Name    string
	Codecs  map[string]Support
	EncMBps float64 // measured tensor encode throughput, per engine
	DecMBps float64 // measured tensor decode throughput, per engine
	// EncEngines/DecEngines count the independent hardware engine
	// instances; independent frames are dispatched across them in
	// parallel. Values <= 0 mean 1.
	EncEngines int
	DecEngines int
}

// Generations reproduces the paper's Table 2 plus the §6.1 throughput
// measurements. Engine counts follow the shipping silicon: Ada Lovelace
// carries dual NVENC instances; the older generations expose one engine of
// each kind to the model.
func Generations() []Generation {
	base := func(name string, av1 bool) Generation {
		g := Generation{
			Name: name,
			Codecs: map[string]Support{
				"H.264": {MaxDim: 4096, Encode: true, Decode: true},
				"H.265": {MaxDim: 8192, Encode: true, Decode: true},
				"VP9":   {MaxDim: 8192, Encode: false, Decode: true},
			},
			EncMBps:    1100,
			DecMBps:    1300,
			EncEngines: 1,
			DecEngines: 1,
		}
		if av1 {
			g.Codecs["AV1"] = Support{MaxDim: 8192, Encode: true, Decode: true}
		}
		return g
	}
	ada := base("Ada Lovelace", true)
	ada.EncEngines, ada.DecEngines = 2, 2
	return []Generation{
		ada,
		base("Ampere", false),
		base("Volta", false),
	}
}

func (g Generation) encEngines() int {
	if g.EncEngines <= 0 {
		return 1
	}
	return g.EncEngines
}

func (g Generation) decEngines() int {
	if g.DecEngines <= 0 {
		return 1
	}
	return g.DecEngines
}

// Device is a simulated hardware video engine bound to one GPU generation
// and codec.
type Device struct {
	Gen     Generation
	Profile codec.Profile
	sup     Support
	// Metrics, when non-nil, collects device-level rollups alongside the
	// codec layer's own instrumentation: nvcodec.encode/decode call counters,
	// modeled-latency histograms (nvcodec.{encode,decode}.model_latency_ns —
	// the hardware timing model, not host CPU time), and the underlying codec
	// metrics recorded into the same registry. Nil disables every record
	// site; see DESIGN.md §10.
	Metrics *obs.Registry
}

// Open validates that the generation supports the profile for both encoding
// and decoding (the paper excludes VP9 for exactly this reason) and returns
// a device.
func Open(gen Generation, profileName string) (*Device, error) {
	sup, ok := gen.Codecs[profileName]
	if !ok {
		return nil, fmt.Errorf("nvcodec: %s has no %s engine", gen.Name, profileName)
	}
	if !sup.Encode || !sup.Decode {
		return nil, fmt.Errorf("nvcodec: %s %s lacks hardware encode+decode", gen.Name, profileName)
	}
	var prof codec.Profile
	switch profileName {
	case "H.264":
		prof = codec.H264
	case "H.265":
		prof = codec.HEVC
	case "AV1":
		prof = codec.AV1
	default:
		return nil, fmt.Errorf("nvcodec: unsupported profile %q", profileName)
	}
	if sup.MaxDim < prof.MaxFrameDim {
		prof.MaxFrameDim = sup.MaxDim
	}
	return &Device{Gen: gen, Profile: prof, sup: sup}, nil
}

// Encode runs the hardware-constrained encode: frames must respect the
// engine's size limit and are 8-bit only (enforced by the plane type).
// Independent planes are dispatched across the generation's encode engines
// (the codec's parallel worker pool stands in for the hardware instances).
// It returns the bitstream, encoder stats, and the modeled wall time: the
// makespan of greedily scheduling the frames across the engines at the
// measured per-engine throughput.
func (d *Device) Encode(planes []*frame.Plane, qp int, tools codec.Tools) ([]byte, codec.Stats, time.Duration, error) {
	for _, p := range planes {
		if p.W > d.sup.MaxDim || p.H > d.sup.MaxDim {
			return nil, codec.Stats{}, 0, fmt.Errorf("nvcodec: frame %dx%d exceeds %s %s limit %d",
				p.W, p.H, d.Gen.Name, d.Profile.Name, d.sup.MaxDim)
		}
	}
	enc := codec.Encoder{Profile: d.Profile, Tools: tools, Workers: d.Gen.encEngines(), Metrics: d.Metrics}
	data, st, err := enc.Encode(context.TODO(), planes, qp)
	if err != nil {
		return nil, codec.Stats{}, 0, err
	}
	lat := d.EncodeLatencyPlanes(planes)
	if d.Metrics != nil {
		d.Metrics.Add("nvcodec.encode.calls", 1)
		d.Metrics.Observe("nvcodec.encode.model_latency_ns", int64(lat))
	}
	return data, st, lat, nil
}

// Decode mirrors Encode with the decode-side engine schedule.
func (d *Device) Decode(data []byte) ([]*frame.Plane, time.Duration, error) {
	planes, err := codec.Decoder{Workers: d.Gen.decEngines(), Metrics: d.Metrics}.Decode(context.TODO(), data)
	if err != nil {
		if d.Metrics != nil {
			d.Metrics.Add("nvcodec.decode.errors", 1)
		}
		return nil, 0, err
	}
	lat := d.DecodeLatencyPlanes(planes)
	if d.Metrics != nil {
		d.Metrics.Add("nvcodec.decode.calls", 1)
		d.Metrics.Observe("nvcodec.decode.model_latency_ns", int64(lat))
	}
	return planes, lat, nil
}

// EncodeLatency models the single-engine time to ingest the given number of
// 8-bit samples at the measured NVENC throughput.
func (d *Device) EncodeLatency(samples int) time.Duration {
	sec := float64(samples) / (d.Gen.EncMBps * 1e6)
	return time.Duration(sec * float64(time.Second))
}

// DecodeLatency models the single-engine time to emit the given number of
// samples.
func (d *Device) DecodeLatency(samples int) time.Duration {
	sec := float64(samples) / (d.Gen.DecMBps * 1e6)
	return time.Duration(sec * float64(time.Second))
}

// EncodeLatencyPlanes models the wall time to encode the planes across the
// generation's encode engines: each plane is an indivisible job, jobs are
// scheduled greedily (longest first) onto the least-loaded engine, and the
// makespan is charged at the per-engine throughput. With one engine this
// degenerates to EncodeLatency of the total sample count.
func (d *Device) EncodeLatencyPlanes(planes []*frame.Plane) time.Duration {
	return d.EncodeLatency(makespanSamples(planeSizes(planes), d.Gen.encEngines()))
}

// DecodeLatencyPlanes is EncodeLatencyPlanes for the decode engines.
func (d *Device) DecodeLatencyPlanes(planes []*frame.Plane) time.Duration {
	return d.DecodeLatency(makespanSamples(planeSizes(planes), d.Gen.decEngines()))
}

func planeSizes(planes []*frame.Plane) []int {
	sizes := make([]int, len(planes))
	for i, p := range planes {
		sizes[i] = p.W * p.H
	}
	return sizes
}

// makespanSamples greedily schedules jobs (sample counts) onto engines,
// longest processing time first, and returns the busiest engine's load —
// the wall-clock sample count of the parallel schedule.
func makespanSamples(jobs []int, engines int) int {
	if engines <= 1 || len(jobs) <= 1 {
		total := 0
		for _, j := range jobs {
			total += j
		}
		return total
	}
	sorted := append([]int(nil), jobs...)
	sort.Sort(sort.Reverse(sort.IntSlice(sorted)))
	loads := make([]int, engines)
	for _, j := range sorted {
		min := 0
		for e := 1; e < engines; e++ {
			if loads[e] < loads[min] {
				min = e
			}
		}
		loads[min] += j
	}
	max := loads[0]
	for _, l := range loads[1:] {
		if l > max {
			max = l
		}
	}
	return max
}

// EffectiveBandwidthMBps reports the end-to-end tensor bandwidth of a
// compress-transfer-decompress path: the minimum of aggregate encode, wire
// and aggregate decode rates, where the wire carries compressed bytes
// (§6.1: the engines cap the GPU's end-to-end communication bandwidth at
// ≈1100 MB/s per encode engine).
func (d *Device) EffectiveBandwidthMBps(wireMBps, compressionRatio float64) float64 {
	wire := wireMBps * compressionRatio // payload rate the wire sustains
	bw := d.Gen.EncMBps * float64(d.Gen.encEngines())
	if dec := d.Gen.DecMBps * float64(d.Gen.decEngines()); dec < bw {
		bw = dec
	}
	if wire < bw {
		bw = wire
	}
	return bw
}
