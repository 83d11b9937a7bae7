package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/codec"
	"repro/internal/dct"
	"repro/internal/frame"
	"repro/internal/obs"
	"repro/internal/quant"
)

// Options configures the tensor codec.
type Options struct {
	Profile codec.Profile
	Tools   codec.Tools
	// MaxFrameW/H bound the frames a tensor is chunked into (the NVENC
	// frame-size limit, §3.2). Values above the profile limit are clamped.
	MaxFrameW, MaxFrameH int
	// PerRowQuant applies the 8-bit affine mapping per row instead of per
	// tensor. Per-tensor (the default) preserves the channel-wise image
	// structure intra prediction exploits; per-row trades that for finer
	// quantization and suits outlier-heavy activations.
	PerRowQuant bool
	// FastSearch enables the codec's two-stage intra mode search (SATD
	// coarse scoring, full rate-distortion only on the top survivors). It
	// is an encoder-side speed knob: streams remain decodable by any
	// decoder, but output bytes differ from the default search, and decoded
	// quality may drift within the MSE envelope documented in DESIGN.md
	// §11. Off by default so existing streams stay byte-identical.
	FastSearch bool
	// Backend selects the codec's entropy backend: codec.BackendCABAC (the
	// zero value — adaptive arithmetic coding, byte-pinned by the golden
	// corpus) or codec.BackendRANS (interleaved static rANS over a shared
	// table, decoding with intra-chunk parallelism). rANS streams always use
	// the hardened v3 container regardless of Checksum. Decode needs no
	// option: the backend is read from the stream header.
	Backend codec.EntropyBackend
	// Workers sizes the parallel engine's worker pool for both encode and
	// decode: each plane of a stack is an independent intra-only slice, so
	// planes are encoded concurrently (mirroring the multiple NVENC/NVDEC
	// engines). 0 (the default) selects runtime.GOMAXPROCS(0); 1 forces
	// serial operation. Output bytes are identical for every worker count —
	// the chunked container is stitched in plane order.
	Workers int
	// Checksum emits the hardened version-3 codec container: CRC32C over
	// the header and over every chunk payload, verified on decode. Costs 4
	// bytes per chunk plus 4 header bytes; buys detection of any bit-rot in
	// transit or at rest, and enables DecodeStackPartial to identify exactly
	// which chunks of a damaged stream are still trustworthy. Off by
	// default so existing streams stay byte-identical.
	Checksum bool
	// Index additionally appends the chunk-index trailer (DESIGN.md §15) to
	// the v3 container: per-chunk offsets, lengths, CRCs and one tensor-space
	// region rect per plane. An indexed stream decodes byte-identically
	// through every existing path, and enables O(region) random access —
	// DecodeLayer, and chunk-level addressing in the content-addressed store.
	// Implies Checksum (the trailer is defined only for the v3 container).
	Index bool
	// Metrics, when non-nil, collects the whole stack's observability
	// signals into one registry: per-stage codec encode/decode timings and
	// bit accounts, worker-pool utilization, the decode-error taxonomy, and
	// the core layer's own rollups (core.encode_stack / core.decode_stack
	// spans, quantize/dequantize stage times, layer and value counters,
	// rate-control probe counts). Nil (the default) disables every record
	// site at the cost of a single pointer check — see DESIGN.md §10.
	Metrics *obs.Registry
}

// DefaultOptions returns the paper's shipping configuration: H.265 profile
// (most widely available, highest throughput — §4.1.1), intra-only tools.
func DefaultOptions() Options {
	return Options{
		Profile:   codec.HEVC,
		Tools:     codec.AllTools,
		MaxFrameW: 1024,
		MaxFrameH: 1024,
	}
}

func (o Options) normalized() Options {
	if o.Profile.Name == "" {
		o.Profile = codec.HEVC
	}
	if o.MaxFrameW <= 0 {
		o.MaxFrameW = 1024
	}
	if o.MaxFrameH <= 0 {
		o.MaxFrameH = 1024
	}
	if o.MaxFrameW > o.Profile.MaxFrameDim {
		o.MaxFrameW = o.Profile.MaxFrameDim
	}
	if o.MaxFrameH > o.Profile.MaxFrameDim {
		o.MaxFrameH = o.Profile.MaxFrameDim
	}
	if o.FastSearch {
		// The knob lives on the codec Profile; threading it here means every
		// encode entry point (EncodeStack, rate control, MSE search) honors it.
		o.Profile.FastSearch = true
	}
	if o.Backend != codec.BackendCABAC {
		// Like FastSearch, the backend rides on the codec-layer carrier
		// (Tools) so every encode entry point honors it.
		o.Tools.Backend = o.Backend
	}
	if o.Index {
		// The chunk-index trailer is defined only for the hardened container.
		o.Checksum = true
	}
	return o
}

// Encoded is a compressed tensor stack: the codec bitstream plus the affine
// dequantization metadata. Its size accounting includes that metadata, so
// BitsPerValue reflects true storage cost.
type Encoded struct {
	Layers, Rows, Cols   int
	PerRow               bool
	MaxFrameW, MaxFrameH int
	QP                   int
	Stream               []byte
	Scales, Zeros        []float32 // per layer, or per layer×row when PerRow
	// Stats carries the codec's per-encode statistics (pixel-domain MSE,
	// bits per pixel, chunk count) so callers can measure distortion
	// without a decode pass. In-memory only: Marshal does not serialize it,
	// so it is zero on containers read back via UnmarshalEncoded.
	Stats codec.Stats
}

// SizeBits reports the total compressed size in bits, metadata included.
func (e *Encoded) SizeBits() int {
	return len(e.Stream)*8 + 32*(len(e.Scales)+len(e.Zeros)) + 14*8 // fixed header
}

// BitsPerValue reports SizeBits divided by the element count.
func (e *Encoded) BitsPerValue() float64 {
	return float64(e.SizeBits()) / float64(e.Layers*e.Rows*e.Cols)
}

// EncodeStack compresses a stack of equally-shaped layer tensors as one
// multi-frame sequence at the given QP (the paper's footnote-1 construction:
// layer index as the temporal axis, luma only).
func (o Options) EncodeStack(stack []*Tensor, qp int) (*Encoded, error) {
	return o.EncodeStackCtx(context.Background(), stack, qp)
}

// EncodeStackCtx is EncodeStack under a context: the codec observes ctx
// cancellation at pool, chunk and CTU granularity (DESIGN.md §12) and the
// call returns ctx.Err() promptly with no output. With a background context
// the output bytes are identical to EncodeStack.
func (o Options) EncodeStackCtx(ctx context.Context, stack []*Tensor, qp int) (*Encoded, error) {
	o = o.normalized()
	if len(stack) == 0 {
		return nil, errors.New("core: empty stack")
	}
	for i, t := range stack {
		switch {
		case t == nil:
			return nil, fmt.Errorf("core: layer %d is nil", i)
		case t.Rows <= 0 || t.Cols <= 0 || len(t.Data) != t.Rows*t.Cols:
			return nil, fmt.Errorf("core: layer %d is %dx%d but holds %d values", i, t.Rows, t.Cols, len(t.Data))
		case t.Rows != stack[0].Rows || t.Cols != stack[0].Cols:
			return nil, fmt.Errorf("core: stack shapes differ: %dx%d vs %dx%d", t.Rows, t.Cols, stack[0].Rows, stack[0].Cols)
		}
	}
	rows, cols := stack[0].Rows, stack[0].Cols
	enc := &Encoded{
		Layers: len(stack), Rows: rows, Cols: cols,
		PerRow:    o.PerRowQuant,
		MaxFrameW: o.MaxFrameW, MaxFrameH: o.MaxFrameH,
		QP: qp,
	}
	span := o.Metrics.StartSpan("core.encode_stack")
	quantSpan := span.Child("quantize")
	var planes []*frame.Plane
	for _, t := range stack {
		pix := make([]uint8, rows*cols)
		if o.PerRowQuant {
			for r := 0; r < rows; r++ {
				rowPix, s, z := quant.ToUint8(t.Data[r*cols : (r+1)*cols])
				copy(pix[r*cols:(r+1)*cols], rowPix)
				enc.Scales = append(enc.Scales, s)
				enc.Zeros = append(enc.Zeros, z)
			}
		} else {
			p, s, z := quant.ToUint8(t.Data)
			pix = p
			enc.Scales = append(enc.Scales, s)
			enc.Zeros = append(enc.Zeros, z)
		}
		planes = append(planes, frame.FromMatrix(pix, rows, cols, o.MaxFrameW, o.MaxFrameH)...)
	}
	quantSpan.End()
	ce := codec.Encoder{Profile: o.Profile, Tools: o.Tools, Workers: o.Workers, Metrics: o.Metrics}
	switch {
	case o.Index:
		// Thread the tensor-space geometry into the trailer: plane
		// l*len(regs)+i covers region regs[i] of layer l, matching the
		// FromMatrix emission order above.
		ce.Container = codec.ContainerIndexed
		regs := enc.regions()
		ce.Regions = make([]codec.PlaneRegion, 0, len(planes))
		for l := 0; l < enc.Layers; l++ {
			for _, r := range regs {
				ce.Regions = append(ce.Regions, codec.PlaneRegion{Layer: l, X0: r.X0, Y0: r.Y0, W: r.W, H: r.H})
			}
		}
	case o.Checksum:
		ce.Container = codec.ContainerChecksummed
	}
	stream, st, err := ce.Encode(ctx, planes, qp)
	if err != nil {
		return nil, err
	}
	enc.Stream = stream
	enc.Stats = st
	span.End()
	if o.Metrics != nil {
		o.Metrics.Add("core.encode.layers", int64(enc.Layers))
		o.Metrics.Add("core.encode.values", int64(enc.Layers)*int64(rows)*int64(cols))
		o.Metrics.Add("core.encode.stream_bits", int64(len(stream))*8)
		o.Metrics.Add("core.encode.metadata_bits", int64(enc.SizeBits()-len(stream)*8))
	}
	return enc, nil
}

// Encode compresses a single tensor.
func (o Options) Encode(t *Tensor, qp int) (*Encoded, error) {
	return o.EncodeStack([]*Tensor{t}, qp)
}

// Error taxonomy of the decode path, re-exported from the codec layer so
// serving code can switch on failure class without importing internals:
// ErrTruncated (stream ends early — retry the fetch), ErrChecksum (v3 CRC
// mismatch — refetch the damaged bytes), ErrCorrupt (anything else
// structurally wrong — alert). All decode entry points return errors
// matching one of these under errors.Is and never panic on hostile input.
var (
	ErrCorrupt   = codec.ErrCorrupt
	ErrTruncated = codec.ErrTruncated
	ErrChecksum  = codec.ErrChecksum
)

// validate checks an Encoded's metadata for internal consistency before any
// geometry-driven allocation: positive dims, positive frame bounds, and a
// scale/zero table sized exactly for the declared quantization mode. It is
// the gate that makes a forged container an error instead of a panic or an
// absurd allocation.
func (e *Encoded) validate() error {
	if e.Layers <= 0 || e.Rows <= 0 || e.Cols <= 0 {
		return fmt.Errorf("core: bad dimensions %dx%dx%d: %w", e.Layers, e.Rows, e.Cols, ErrCorrupt)
	}
	if e.MaxFrameW <= 0 || e.MaxFrameH <= 0 {
		return fmt.Errorf("core: bad frame bounds %dx%d: %w", e.MaxFrameW, e.MaxFrameH, ErrCorrupt)
	}
	// Allocation caps: a layer's matrix and the band/slab region table are
	// sized from header fields alone, so bound them before anything is made.
	// The per-layer pixel cap mirrors codec.maxDecodePixels; the plane cap
	// mirrors the codec container's 2^20 frame-count limit, which any
	// decodable stream must satisfy anyway.
	if int64(e.Rows)*int64(e.Cols) > 1<<28 {
		return fmt.Errorf("core: layer of %dx%d pixels exceeds cap: %w", e.Rows, e.Cols, ErrCorrupt)
	}
	nRegions := int64((e.Rows-1)/e.MaxFrameH+1) * int64((e.Cols-1)/e.MaxFrameW+1)
	if int64(e.Layers)*nRegions > 1<<20 {
		return fmt.Errorf("core: %d layers × %d planes exceeds cap: %w", e.Layers, nRegions, ErrCorrupt)
	}
	want := e.Layers
	if e.PerRow {
		if e.Rows > (1<<31-1)/e.Layers {
			return fmt.Errorf("core: per-row metadata count overflows: %w", ErrCorrupt)
		}
		want = e.Layers * e.Rows
	}
	if len(e.Scales) != want || len(e.Zeros) != want {
		return fmt.Errorf("core: metadata count %d/%d, want %d: %w",
			len(e.Scales), len(e.Zeros), want, ErrCorrupt)
	}
	return nil
}

// regions returns the per-layer band/slab partition of the tensor matrix;
// region i corresponds to plane l*len(regions)+i of the decoded stream.
func (e *Encoded) regions() []frame.Region {
	return frame.Regions(e.Rows, e.Cols, e.MaxFrameW, e.MaxFrameH)
}

// checkPlaneGeometry verifies that the decoded plane list matches the
// geometry the metadata declares, so matrix reassembly cannot index or
// panic on a mismatched stream. Nil planes (partial decode) are skipped.
func (e *Encoded) checkPlaneGeometry(planes []*frame.Plane, regs []frame.Region) error {
	if len(planes) != e.Layers*len(regs) {
		return fmt.Errorf("core: stream decodes to %d planes, metadata wants %d×%d: %w",
			len(planes), e.Layers, len(regs), ErrCorrupt)
	}
	for i, p := range planes {
		if p == nil {
			continue
		}
		reg := regs[i%len(regs)]
		if p.W != reg.W || p.H != reg.H {
			return fmt.Errorf("core: plane %d is %dx%d, metadata wants %dx%d: %w",
				i, p.W, p.H, reg.W, reg.H, ErrCorrupt)
		}
	}
	return nil
}

// dequantLayer assembles layer l from its planes (entries may be nil under
// partial decode), dequantizing recovered regions and leaving damaged
// regions at the zero-fill value 0.0. It reports how many of the layer's
// planes were missing.
func (e *Encoded) dequantLayer(l int, layerPlanes []*frame.Plane, regs []frame.Region) (*Tensor, int) {
	t := NewTensor(e.Rows, e.Cols)
	missing := 0
	for i, reg := range regs {
		p := layerPlanes[i]
		if p == nil {
			missing++
			continue
		}
		for y := 0; y < reg.H; y++ {
			row := reg.Y0 + y
			var s, z float32
			if e.PerRow {
				s, z = e.Scales[l*e.Rows+row], e.Zeros[l*e.Rows+row]
			} else {
				s, z = e.Scales[l], e.Zeros[l]
			}
			vals := quant.FromUint8(p.Row(y), s, z)
			copy(t.Data[row*e.Cols+reg.X0:row*e.Cols+reg.X0+reg.W], vals)
		}
	}
	return t, missing
}

// DecodeStack reconstructs the tensor stack from an Encoded, decoding
// independent bitstream chunks concurrently per o.Workers. It fails on the
// first damaged chunk; see DecodeStackPartial for best-effort recovery.
func (o Options) DecodeStack(e *Encoded) ([]*Tensor, error) {
	return o.DecodeStackCtx(context.Background(), e)
}

// DecodeStackCtx is DecodeStack under a context: cancellation aborts the
// remaining chunk decodes and returns ctx.Err() (never wrapped into the
// decode-error taxonomy — see codec.IsCancellation).
func (o Options) DecodeStackCtx(ctx context.Context, e *Encoded) ([]*Tensor, error) {
	o = o.normalized()
	if err := e.validate(); err != nil {
		o.Metrics.Add("core.decode.errors", 1)
		return nil, err
	}
	span := o.Metrics.StartSpan("core.decode_stack")
	planes, err := codec.Decoder{Workers: o.Workers, Metrics: o.Metrics}.Decode(ctx, e.Stream)
	if err != nil {
		o.Metrics.Add("core.decode.errors", 1)
		return nil, err
	}
	regs := e.regions()
	if err := e.checkPlaneGeometry(planes, regs); err != nil {
		o.Metrics.Add("core.decode.errors", 1)
		return nil, err
	}
	dequantSpan := span.Child("dequantize")
	perLayer := len(regs)
	out := make([]*Tensor, e.Layers)
	for l := 0; l < e.Layers; l++ {
		out[l], _ = e.dequantLayer(l, planes[l*perLayer:(l+1)*perLayer], regs)
	}
	dequantSpan.End()
	span.End()
	if o.Metrics != nil {
		o.Metrics.Add("core.decode.layers", int64(e.Layers))
		o.Metrics.Add("core.decode.values", int64(e.Layers)*int64(e.Rows)*int64(e.Cols))
	}
	return out, nil
}

// Decode reconstructs a single tensor.
func (o Options) Decode(e *Encoded) (*Tensor, error) {
	ts, err := o.DecodeStack(e)
	if err != nil {
		return nil, err
	}
	return ts[0], nil
}

// Roundtrip encodes and decodes t at qp, returning the reconstruction and
// the achieved bits per value.
func (o Options) Roundtrip(t *Tensor, qp int) (*Tensor, float64, error) {
	e, err := o.Encode(t, qp)
	if err != nil {
		return nil, 0, err
	}
	d, err := o.Decode(e)
	if err != nil {
		return nil, 0, err
	}
	return d, e.BitsPerValue(), nil
}

// EncodeToBitrate finds the best-quality encode whose total cost (metadata
// included) stays at or below bitsPerValue — the paper's fractional-bitrate
// interface. Returns the encode and chosen QP.
func (o Options) EncodeToBitrate(t *Tensor, bitsPerValue float64) (*Encoded, error) {
	return o.EncodeStackToBitrate([]*Tensor{t}, bitsPerValue)
}

// probeStack memoizes EncodeStack probes by QP for one rate-control search,
// counting each real encode into core.ratecontrol.probes. Encoding is
// deterministic, so the cache is exact and the bisection (including its
// fallback re-encode at the range edge) never encodes the same QP twice.
func (o Options) probeStack(stack []*Tensor) func(qp int) (*Encoded, error) {
	cache := map[int]*Encoded{}
	return func(qp int) (*Encoded, error) {
		if e, ok := cache[qp]; ok {
			return e, nil
		}
		e, err := o.EncodeStack(stack, qp)
		if err != nil {
			return nil, err
		}
		cache[qp] = e
		o.Metrics.Add("core.ratecontrol.probes", 1)
		return e, nil
	}
}

// bisectQP is the one QP search behind every rate-control entry point. It
// bisects [0, dct.MaxQP] with probe, which encodes at a QP and reports
// whether the result fits the target and how good it is. Fitting QPs steer
// the search toward coarser quantization when up is set (quality targets:
// the coarsest fitting QP is the cheapest) and toward finer quantization
// otherwise (rate targets: the finest fitting QP is the best). It returns
// the fitting result with the highest score. When nothing fits, the search
// has been pushed to the far edge of the range (0 when up, MaxQP
// otherwise) and returns that last probe, so callers see the floor without
// a second encode.
func bisectQP[T any](up bool, probe func(qp int) (res T, fits bool, score float64, err error)) (T, error) {
	var best, last T
	var bestScore float64
	found := false
	lo, hi := 0, dct.MaxQP
	for lo <= hi {
		mid := (lo + hi) / 2
		res, fits, score, err := probe(mid)
		if err != nil {
			return res, err
		}
		last = res
		if fits && (!found || score > bestScore) {
			best, bestScore, found = res, score, true
		}
		if fits == up {
			lo = mid + 1
		} else {
			hi = mid - 1
		}
	}
	if !found {
		return last, nil
	}
	return best, nil
}

// EncodeStackToBitrate is EncodeToBitrate over a layer stack. When even
// dct.MaxQP exceeds the budget it returns the MaxQP encode.
func (o Options) EncodeStackToBitrate(stack []*Tensor, bitsPerValue float64) (*Encoded, error) {
	if bitsPerValue <= 0 {
		return nil, fmt.Errorf("core: bits-per-value target %.3f must be positive", bitsPerValue)
	}
	probe := o.probeStack(stack)
	return bisectQP(false, func(qp int) (*Encoded, bool, float64, error) {
		e, err := probe(qp)
		if err != nil {
			return nil, false, 0, err
		}
		return e, e.BitsPerValue() <= bitsPerValue, e.BitsPerValue(), nil
	})
}

// EncodeToMSE finds the cheapest encode whose reconstruction MSE (in the
// tensor's value domain) stays at or below maxMSE — the Fig. 2(b) quality
// constraint (MSE < 0.01). It also returns the reconstruction.
func (o Options) EncodeToMSE(t *Tensor, maxMSE float64) (*Encoded, *Tensor, error) {
	fit, err := o.searchMSE([]*Tensor{t}, maxMSE)
	if err != nil {
		return nil, nil, err
	}
	return fit.enc, fit.dec[0], nil
}

// EncodeStackToMSE finds the cheapest stack encode whose mean reconstruction
// MSE (value domain, averaged over layers) stays at or below maxMSE — the
// multi-frame form of EncodeToMSE used by the Fig. 2(b) ablation.
func (o Options) EncodeStackToMSE(stack []*Tensor, maxMSE float64) (*Encoded, float64, error) {
	fit, err := o.searchMSE(stack, maxMSE)
	if err != nil {
		return nil, 0, err
	}
	return fit.enc, fit.mse, nil
}

// mseFit is one MSE-search probe: the encode, its reconstruction and the
// mean value-domain MSE over the stack.
type mseFit struct {
	enc *Encoded
	dec []*Tensor
	mse float64
}

// searchMSE returns the coarsest-QP encode of stack whose mean MSE is at
// most maxMSE, or the QP-0 encode when even that misses the budget.
func (o Options) searchMSE(stack []*Tensor, maxMSE float64) (mseFit, error) {
	probe := o.probeStack(stack)
	return bisectQP(true, func(qp int) (mseFit, bool, float64, error) {
		e, err := probe(qp)
		if err != nil {
			return mseFit{}, false, 0, err
		}
		dec, err := o.DecodeStack(e)
		if err != nil {
			return mseFit{}, false, 0, err
		}
		var s float64
		for i := range dec {
			s += stack[i].MSE(dec[i])
		}
		mse := s / float64(len(dec))
		return mseFit{enc: e, dec: dec, mse: mse}, mse <= maxMSE, float64(qp), nil
	})
}

// Marshal serializes an Encoded to a portable byte stream (the .l265
// container used by cmd/llm265).
func (e *Encoded) Marshal() []byte {
	var buf bytes.Buffer
	buf.WriteString("L265T\x01")
	binary.Write(&buf, binary.BigEndian, uint32(e.Layers))
	binary.Write(&buf, binary.BigEndian, uint32(e.Rows))
	binary.Write(&buf, binary.BigEndian, uint32(e.Cols))
	perRow := uint8(0)
	if e.PerRow {
		perRow = 1
	}
	buf.WriteByte(perRow)
	binary.Write(&buf, binary.BigEndian, uint32(e.MaxFrameW))
	binary.Write(&buf, binary.BigEndian, uint32(e.MaxFrameH))
	buf.WriteByte(uint8(e.QP))
	binary.Write(&buf, binary.BigEndian, uint32(len(e.Scales)))
	for i := range e.Scales {
		binary.Write(&buf, binary.BigEndian, math.Float32bits(e.Scales[i]))
		binary.Write(&buf, binary.BigEndian, math.Float32bits(e.Zeros[i]))
	}
	binary.Write(&buf, binary.BigEndian, uint32(len(e.Stream)))
	buf.Write(e.Stream)
	return buf.Bytes()
}

// UnmarshalEncoded parses a stream produced by Marshal. Every length and
// count field is validated against the bytes actually present before any
// allocation is sized from it, so a tiny stream claiming 2³¹ elements is
// rejected up front; failures are typed (ErrTruncated for streams that end
// early, ErrCorrupt for impossible fields) and the function never panics.
func UnmarshalEncoded(data []byte) (*Encoded, error) {
	const fixedHeader = 6 + 4 + 4 + 4 + 1 + 4 + 4 + 1 + 4 // magic..metadata count
	if len(data) < 6 || string(data[:6]) != "L265T\x01" {
		if len(data) >= 6 {
			return nil, fmt.Errorf("core: bad container header: %w", ErrCorrupt)
		}
		return nil, fmt.Errorf("core: %d-byte container: %w", len(data), ErrTruncated)
	}
	if len(data) < fixedHeader {
		return nil, fmt.Errorf("core: container ends inside fixed header: %w", ErrTruncated)
	}
	off := 6
	u32 := func() int {
		v := int(binary.BigEndian.Uint32(data[off:]))
		off += 4
		return v
	}
	e := &Encoded{}
	e.Layers = u32()
	e.Rows = u32()
	e.Cols = u32()
	e.PerRow = data[off] == 1
	off++
	e.MaxFrameW = u32()
	e.MaxFrameH = u32()
	e.QP = int(data[off])
	off++
	n := u32()
	// Allocation cap: each metadata entry occupies 8 bytes, so a count the
	// remaining bytes cannot hold is rejected before the tables are made.
	if n < 0 || n > 1<<24 {
		return nil, fmt.Errorf("core: metadata count %d out of range: %w", n, ErrCorrupt)
	}
	if len(data)-off < 8*n {
		return nil, fmt.Errorf("core: container ends inside %d-entry metadata table: %w", n, ErrTruncated)
	}
	e.Scales = make([]float32, n)
	e.Zeros = make([]float32, n)
	for i := 0; i < n; i++ {
		e.Scales[i] = math.Float32frombits(binary.BigEndian.Uint32(data[off:]))
		e.Zeros[i] = math.Float32frombits(binary.BigEndian.Uint32(data[off+4:]))
		off += 8
	}
	if len(data)-off < 4 {
		return nil, fmt.Errorf("core: container ends before stream length: %w", ErrTruncated)
	}
	streamLen := u32()
	if streamLen < 0 {
		return nil, fmt.Errorf("core: negative stream length: %w", ErrCorrupt)
	}
	if len(data)-off < streamLen {
		return nil, fmt.Errorf("core: stream needs %d bytes, %d remain: %w",
			streamLen, len(data)-off, ErrTruncated)
	}
	if len(data)-off > streamLen {
		// Exact-length rule, mirroring the codec container: Marshal emits
		// nothing after the stream, so trailing bytes mean damaged framing.
		return nil, fmt.Errorf("core: %d trailing bytes after stream: %w",
			len(data)-off-streamLen, ErrCorrupt)
	}
	e.Stream = make([]byte, streamLen)
	copy(e.Stream, data[off:off+streamLen])
	if err := e.validate(); err != nil {
		return nil, err
	}
	return e, nil
}
