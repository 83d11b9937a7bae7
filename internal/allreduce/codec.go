package allreduce

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/bits"
	"repro/internal/codec"
	"repro/internal/core"
)

// SegmentCodec compresses one gradient segment into wire bytes and decodes
// them back. Implementations must be deterministic — identical input values
// must yield identical payload bytes — because the ring's schedule
// independence rests on every replica of a frame carrying the same bytes.
//
// A codec instance is owned by a single ring worker and is never called
// concurrently; stateful codecs (rate controllers, warmup steppers) are
// therefore safe without locks.
type SegmentCodec interface {
	// Wire identifies the payload format (Wire* constant) for framing.
	Wire() byte
	// Encode compresses vals (rows×cols, row-major). It returns the wire
	// payload, the reconstruction the receiver will decode (nil means the
	// codec is lossless and recon == vals), and the accounted wire cost in
	// bits. vals must not be retained.
	Encode(ctx context.Context, vals []float32, rows, cols int) (payload []byte, recon []float32, bitsCost int64, err error)
	// Decode parses payload into dst (len rows*cols). Errors are typed with
	// the codec taxonomy and never panic on hostile bytes.
	Decode(ctx context.Context, payload []byte, rows, cols int, dst []float32) error
}

// CodecFactory builds one SegmentCodec per ring worker, so stateful codecs
// get private state. The worker index is provided for codecs that want
// per-worker determinism (it must not feed randomness).
type CodecFactory func(worker int) SegmentCodec

// Stepper is implemented by codecs with per-training-step state (warmup
// counters). The ring forwards AdvanceStep to every worker's codec.
type Stepper interface{ AdvanceStep() }

// rawBitsPerValue is the accounted cost of an uncompressed value. The wire
// carries float32 for bit-exactness with the in-process baseline, but the
// modeled link is FP16 — matching the training loop's accounting of the
// uncompressed path — so comparisons against compressed schemes are fair.
const rawBitsPerValue = 16

// --- raw (uncompressed FP16-accounted) ---

type rawCodec struct{}

// RawCodec returns the lossless pass-through codec: float32 little-endian
// payloads accounted at 16 bits/value. With this codec the ring is
// bit-identical to the sequential reduction, which is the anchor property
// of the whole harness.
func RawCodec() CodecFactory {
	return func(int) SegmentCodec { return rawCodec{} }
}

func (rawCodec) Wire() byte { return WireRaw }

func (rawCodec) Encode(_ context.Context, vals []float32, rows, cols int) ([]byte, []float32, int64, error) {
	if len(vals) != rows*cols {
		return nil, nil, 0, fmt.Errorf("allreduce: raw encode %d values for %dx%d", len(vals), rows, cols)
	}
	payload := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(payload[4*i:], math.Float32bits(v))
	}
	return payload, nil, int64(rawBitsPerValue) * int64(len(vals)), nil
}

func (rawCodec) Decode(_ context.Context, payload []byte, rows, cols int, dst []float32) error {
	n := rows * cols
	if len(payload) != 4*n {
		return fmt.Errorf("allreduce: raw payload %d bytes for %d values: %w", len(payload), n, codec.ErrCorrupt)
	}
	for i := 0; i < n; i++ {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(payload[4*i:]))
	}
	return nil
}

// --- tensor (the real LLM.265 path) ---

type tensorCodec struct {
	opts core.Options
	qp   int
}

// TensorCodec compresses each segment through the real core/codec pipeline
// (DCT, intra prediction, the configured entropy backend) at a fixed QP,
// shipping the marshaled .l265 container as the payload. This is the
// paper's compressed-gradient path (§5.2) running on live wire traffic.
func TensorCodec(opts core.Options, qp int) CodecFactory {
	return func(int) SegmentCodec { return &tensorCodec{opts: opts, qp: qp} }
}

func (c *tensorCodec) Wire() byte { return WireTensor }

func (c *tensorCodec) Encode(ctx context.Context, vals []float32, rows, cols int) ([]byte, []float32, int64, error) {
	t := core.FromSlice(rows, cols, vals)
	enc, err := c.opts.EncodeStackCtx(ctx, []*core.Tensor{t}, c.qp)
	if err != nil {
		return nil, nil, 0, err
	}
	dec, err := c.opts.DecodeStackCtx(ctx, enc)
	if err != nil {
		return nil, nil, 0, err
	}
	payload := enc.Marshal()
	return payload, dec[0].Data, int64(enc.SizeBits()), nil
}

func (c *tensorCodec) Decode(ctx context.Context, payload []byte, rows, cols int, dst []float32) error {
	enc, err := core.UnmarshalEncoded(payload)
	if err != nil {
		return err
	}
	if enc.Layers != 1 || enc.Rows != rows || enc.Cols != cols {
		return fmt.Errorf("allreduce: container geometry %dx%dx%d, frame says %dx%d: %w",
			enc.Layers, enc.Rows, enc.Cols, rows, cols, codec.ErrCorrupt)
	}
	dec, err := c.opts.DecodeStackCtx(ctx, enc)
	if err != nil {
		return err
	}
	copy(dst, dec[0].Data)
	return nil
}

// --- RTN (group-wise round-to-nearest baseline) ---

type rtnCodec struct {
	bits  int
	group int
}

// RTNCodec returns a group-wise asymmetric round-to-nearest codec matching
// internal/quant.RTNGroupwise's math exactly: per group a float32 lo/hi pair
// plus bit-packed level codes. Accounted cost is the packed payload —
// bits·n plus 32 bits of range metadata per group, the same formula
// RTNGroupwise reports.
func RTNCodec(bitWidth, groupSize int) CodecFactory {
	if bitWidth < 1 || bitWidth > 16 {
		panic(fmt.Sprintf("allreduce: RTN bits %d out of range", bitWidth))
	}
	if groupSize <= 0 {
		panic("allreduce: RTN groupSize must be positive")
	}
	return func(int) SegmentCodec { return &rtnCodec{bits: bitWidth, group: groupSize} }
}

func (c *rtnCodec) Wire() byte { return WireRTN }

// rtnHeaderLen prefixes the packed codes with the quantizer geometry so the
// decoder validates the payload against the frame's claim: bits(1) group
// size(u16) then per group lo,hi float32.
const rtnHeaderLen = 3

func (c *rtnCodec) Encode(_ context.Context, vals []float32, rows, cols int) ([]byte, []float32, int64, error) {
	n := rows * cols
	if len(vals) != n {
		return nil, nil, 0, fmt.Errorf("allreduce: rtn encode %d values for %dx%d", len(vals), rows, cols)
	}
	recon := make([]float32, n)
	w := bits.NewWriter()
	var head []byte
	head = append(head, byte(c.bits))
	head = binary.LittleEndian.AppendUint16(head, uint16(c.group))
	levels := float64(int64(1)<<c.bits) - 1
	for start := 0; start < n; start += c.group {
		end := start + c.group
		if end > n {
			end = n
		}
		lo, hi := finiteMinMax(vals[start:end])
		head = binary.LittleEndian.AppendUint32(head, math.Float32bits(lo))
		head = binary.LittleEndian.AppendUint32(head, math.Float32bits(hi))
		if hi == lo {
			for i := start; i < end; i++ {
				recon[i] = lo
				w.WriteBits(0, uint(c.bits))
			}
			continue
		}
		scale := (float64(hi) - float64(lo)) / levels
		for i := start; i < end; i++ {
			q := math.Round((sanitizeF32(vals[i]) - float64(lo)) / scale)
			if q < 0 {
				q = 0
			}
			if q > levels {
				q = levels
			}
			recon[i] = float32(float64(lo) + q*scale)
			w.WriteBits(uint64(q), uint(c.bits))
		}
	}
	payload := append(head, w.Bytes()...)
	groups := (n + c.group - 1) / c.group
	cost := int64(c.bits)*int64(n) + 32*int64(groups)
	return payload, recon, cost, nil
}

func (c *rtnCodec) Decode(_ context.Context, payload []byte, rows, cols int, dst []float32) error {
	n := rows * cols
	if len(payload) < rtnHeaderLen {
		return fmt.Errorf("allreduce: rtn payload %d bytes: %w", len(payload), codec.ErrTruncated)
	}
	bitWidth := int(payload[0])
	group := int(binary.LittleEndian.Uint16(payload[1:]))
	if bitWidth < 1 || bitWidth > 16 || group < 1 {
		return fmt.Errorf("allreduce: rtn geometry bits=%d group=%d: %w", bitWidth, group, codec.ErrCorrupt)
	}
	groups := (n + group - 1) / group
	rangeLen := 8 * groups
	codeLen := (bitWidth*n + 7) / 8
	want := rtnHeaderLen + rangeLen + codeLen
	if len(payload) < want {
		return fmt.Errorf("allreduce: rtn payload %d bytes, need %d: %w", len(payload), want, codec.ErrTruncated)
	}
	if len(payload) > want {
		return fmt.Errorf("allreduce: rtn payload %d trailing bytes: %w", len(payload)-want, codec.ErrCorrupt)
	}
	ranges := payload[rtnHeaderLen : rtnHeaderLen+rangeLen]
	r := bits.NewReader(payload[rtnHeaderLen+rangeLen:])
	levels := float64(int64(1)<<bitWidth) - 1
	for g := 0; g < groups; g++ {
		lo := math.Float32frombits(binary.LittleEndian.Uint32(ranges[8*g:]))
		hi := math.Float32frombits(binary.LittleEndian.Uint32(ranges[8*g+4:]))
		if !finite32(lo) || !finite32(hi) || hi < lo {
			return fmt.Errorf("allreduce: rtn group %d range [%g,%g]: %w", g, lo, hi, codec.ErrCorrupt)
		}
		start, end := g*group, (g+1)*group
		if end > n {
			end = n
		}
		scale := (float64(hi) - float64(lo)) / levels
		for i := start; i < end; i++ {
			q, err := r.ReadBits(uint(bitWidth))
			if err != nil {
				return fmt.Errorf("allreduce: rtn codes: %w", codec.ErrTruncated)
			}
			if hi == lo {
				dst[i] = lo
				continue
			}
			dst[i] = float32(float64(lo) + float64(q)*scale)
		}
	}
	return nil
}

// --- sign (1-bit with warmup, the 1-bit Adam baseline) ---

type signCodec struct {
	warmup int
	step   int
}

// SignCodec returns the 1-bit compressor used by the 1-bit Adam/LAMB
// baseline: the first warmupSteps training steps pass gradients through
// uncompressed (the variance-warmup phase), after which each segment is
// sign(v)·mean|v|. It implements Stepper; the ring advances it once per
// Allreduce call.
func SignCodec(warmupSteps int) CodecFactory {
	return func(int) SegmentCodec { return &signCodec{warmup: warmupSteps} }
}

func (c *signCodec) Wire() byte     { return WireSign }
func (c *signCodec) AdvanceStep()   { c.step++ }
func (c *signCodec) inWarmup() bool { return c.step < c.warmup }

const (
	signPhaseWarmup = 0x00
	signPhaseSign   = 0x01
)

func (c *signCodec) Encode(_ context.Context, vals []float32, rows, cols int) ([]byte, []float32, int64, error) {
	n := rows * cols
	if len(vals) != n {
		return nil, nil, 0, fmt.Errorf("allreduce: sign encode %d values for %dx%d", len(vals), rows, cols)
	}
	if c.inWarmup() {
		payload := make([]byte, 1+4*n)
		payload[0] = signPhaseWarmup
		for i, v := range vals {
			binary.LittleEndian.PutUint32(payload[1+4*i:], math.Float32bits(v))
		}
		return payload, nil, int64(rawBitsPerValue) * int64(n), nil
	}
	var sum float64
	for _, v := range vals {
		sum += math.Abs(sanitizeF32(v))
	}
	mean := float32(sum / float64(n))
	payload := make([]byte, 1+4+(n+7)/8)
	payload[0] = signPhaseSign
	binary.LittleEndian.PutUint32(payload[1:], math.Float32bits(mean))
	recon := make([]float32, n)
	for i, v := range vals {
		if v < 0 {
			recon[i] = -mean
		} else {
			recon[i] = mean
			payload[5+i/8] |= 1 << (7 - i%8)
		}
	}
	// 1 bit per value plus one float32 scale per segment.
	return payload, recon, int64(n) + 32, nil
}

func (c *signCodec) Decode(_ context.Context, payload []byte, rows, cols int, dst []float32) error {
	n := rows * cols
	if len(payload) < 1 {
		return fmt.Errorf("allreduce: sign payload empty: %w", codec.ErrTruncated)
	}
	switch payload[0] {
	case signPhaseWarmup:
		if len(payload) != 1+4*n {
			return fmt.Errorf("allreduce: sign warmup payload %d bytes for %d values: %w", len(payload), n, codec.ErrCorrupt)
		}
		for i := 0; i < n; i++ {
			dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(payload[1+4*i:]))
		}
		return nil
	case signPhaseSign:
		want := 1 + 4 + (n+7)/8
		if len(payload) != want {
			return fmt.Errorf("allreduce: sign payload %d bytes, want %d: %w", len(payload), want, codec.ErrCorrupt)
		}
		mean := math.Float32frombits(binary.LittleEndian.Uint32(payload[1:]))
		if !finite32(mean) || mean < 0 {
			return fmt.Errorf("allreduce: sign scale %g: %w", mean, codec.ErrCorrupt)
		}
		packed := payload[5:]
		for i := 0; i < n; i++ {
			if packed[i/8]&(1<<(7-i%8)) != 0 {
				dst[i] = mean
			} else {
				dst[i] = -mean
			}
		}
		return nil
	default:
		return fmt.Errorf("allreduce: sign phase byte %#x: %w", payload[0], codec.ErrCorrupt)
	}
}

// sanitizeF32 mirrors quant.sanitize: NaN→0, ±Inf→±MaxFloat32, so hostile
// gradients quantize deterministically on every platform.
func sanitizeF32(v float32) float64 {
	f := float64(v)
	switch {
	case math.IsNaN(f):
		return 0
	case math.IsInf(f, 1):
		return math.MaxFloat32
	case math.IsInf(f, -1):
		return -math.MaxFloat32
	}
	return f
}

func finite32(v float32) bool {
	f := float64(v)
	return !math.IsNaN(f) && !math.IsInf(f, 0)
}

// finiteMinMax mirrors quant.minMax over a segment slice.
func finiteMinMax(data []float32) (lo, hi float32) {
	if len(data) == 0 {
		return 0, 0
	}
	lo64, hi64 := math.Inf(1), math.Inf(-1)
	for _, v := range data {
		f := sanitizeF32(v)
		if f < lo64 {
			lo64 = f
		}
		if f > hi64 {
			hi64 = f
		}
	}
	return float32(lo64), float32(hi64)
}
