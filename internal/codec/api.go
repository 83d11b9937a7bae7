// The codec's public entry points: one Encoder and one Decoder.
//
// The paper drives NVENC/NVDEC as a black-box engine behind a single encode
// call and a single decode call (§3.2); this package does the same. An
// Encoder value carries everything that shapes the output bytes — profile,
// tools, container — plus the two knobs that never do: the worker count
// and the metrics registry. Output bytes are identical for every Workers
// value, with or without Metrics, and under any context that is not
// canceled (DESIGN.md §9, §10, §12).
package codec

import (
	"context"
	"fmt"

	"repro/internal/frame"
	"repro/internal/obs"
)

// Container selects the container an Encoder emits.
type Container uint8

const (
	// ContainerAuto emits the version-1 container when the plane list forms
	// a single chunk and the chunked version-2 container otherwise. rANS
	// streams always use version 3, whose header carries the shared
	// probability table.
	ContainerAuto Container = iota
	// ContainerChecksummed always emits the hardened version-3 container:
	// CRC32C over the header and over every chunk payload. A single-chunk
	// workload still gets a one-entry chunk table, because integrity
	// framing is the point.
	ContainerChecksummed
	// ContainerIndexed emits version 3 plus the chunk-index trailer
	// (DESIGN.md §15): per-chunk absolute offset, length, CRC32C and plane
	// span, and the Encoder's Regions. It decodes byte-identically to its
	// un-indexed twin.
	ContainerIndexed
)

// Encoder compresses plane lists. The zero Workers value selects
// runtime.GOMAXPROCS(0); a nil Metrics records nothing at the cost of one
// pointer check per record site.
type Encoder struct {
	Profile   Profile
	Tools     Tools
	Workers   int
	Container Container
	// Regions, used only with ContainerIndexed, holds one tensor-space rect
	// per plane for the index trailer; nil indexes offsets and CRCs only.
	Regions []PlaneRegion
	Metrics *obs.Registry
}

// Encode compresses planes at qp. Independent plane chunks are encoded
// concurrently on up to e.Workers goroutines and stitched in chunk order.
// A canceled ctx stops the encode at pool, chunk and CTU granularity and
// returns ctx.Err() with no output. A nil, zero-sized or short plane is an
// error matching ErrEmptyInput.
func (e Encoder) Encode(ctx context.Context, planes []*frame.Plane, qp int) ([]byte, Stats, error) {
	if e.Regions != nil && e.Container != ContainerIndexed {
		return nil, Stats{}, fmt.Errorf("codec: index regions need ContainerIndexed")
	}
	m := newEncMetrics(e.Metrics)
	switch e.Container {
	case ContainerAuto:
		return encodeAuto(ctx, planes, qp, e.Profile, e.Tools, e.Workers, m)
	case ContainerChecksummed:
		return encodeV3(ctx, planes, qp, e.Profile, e.Tools, e.Workers, m, false, nil)
	case ContainerIndexed:
		return encodeV3(ctx, planes, qp, e.Profile, e.Tools, e.Workers, m, true, e.Regions)
	}
	return nil, Stats{}, fmt.Errorf("codec: unknown container %d", e.Container)
}

// Decoder reconstructs planes from a container of any version. Workers and
// Metrics mean what they mean on Encoder. No method panics on hostile
// input: failures are typed errors matching ErrCorrupt, ErrTruncated or
// ErrChecksum, and a canceled ctx returns ctx.Err() bare.
type Decoder struct {
	Workers int
	Metrics *obs.Registry
}

// Decode returns every plane of data, failing on the first damaged chunk.
func (d Decoder) Decode(ctx context.Context, data []byte) ([]*frame.Plane, error) {
	m := newDecMetrics(d.Metrics)
	planes, err := decodeDispatch(ctx, data, d.Workers, m)
	if err != nil {
		m.countError(err)
		return nil, err
	}
	m.countPlanes(len(planes))
	return planes, nil
}

// DecodePartial is the graceful-degradation decode: it decodes every chunk
// whose bytes are present and, for version 3, whose CRC32C verifies, and
// reports the rest as ChunkErrors instead of failing the whole stream. The
// top-level error is non-nil only when the shared geometry itself is
// unusable (bad magic, damaged header or chunk table) or ctx is canceled.
func (d Decoder) DecodePartial(ctx context.Context, data []byte) (*PartialResult, error) {
	m := newDecMetrics(d.Metrics)
	res, err := decodePartial(ctx, data, d.Workers, m)
	if err != nil {
		m.countError(err)
		return nil, err
	}
	m.countPlanes(res.Recovered())
	if m != nil {
		for _, ce := range res.Errors {
			m.countError(ce.Err)
			m.partialChunksLost.Inc()
			m.partialPlanesLost.Add(int64(ce.PlaneCount))
		}
	}
	return res, nil
}

// DecodeRegion decodes only the planes [first, first+count), touching only
// the chunks that cover them. The result is byte-identical to the same crop
// of a full decode. Any container version works (a v1 container is one
// chunk); the chunk partition, not the index, bounds the work.
func (d Decoder) DecodeRegion(ctx context.Context, data []byte, first, count int) ([]*frame.Plane, error) {
	m := newDecMetrics(d.Metrics)
	planes, err := decodeRegion(ctx, data, first, count, d.Workers, m)
	if err != nil {
		m.countError(err)
		return nil, err
	}
	m.countPlanes(len(planes))
	return planes, nil
}

// EncodeParallelObs is Encoder{prof, tools, workers, ContainerAuto, reg}.
// Its only caller is the perfbench harness, which pins this name.
func EncodeParallelObs(planes []*frame.Plane, qp int, prof Profile, tools Tools, workers int, reg *obs.Registry) ([]byte, Stats, error) {
	return Encoder{Profile: prof, Tools: tools, Workers: workers, Metrics: reg}.Encode(context.TODO(), planes, qp)
}

// DecodeWorkersObs is Decoder{workers, reg}.Decode. Its only caller is the
// perfbench harness, which pins this name.
func DecodeWorkersObs(data []byte, workers int, reg *obs.Registry) ([]*frame.Plane, error) {
	return Decoder{Workers: workers, Metrics: reg}.Decode(context.TODO(), data)
}
