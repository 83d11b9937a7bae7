package codec

import (
	"context"
	"encoding/binary"

	"repro/internal/bits"
	"repro/internal/cabac"
	"repro/internal/dct"
	"repro/internal/frame"
	"repro/internal/intra"
)

type decoder struct {
	prof  Profile
	tools Tools
	qp    int

	w, h  int
	recon *frame.Plane
	prev  *frame.Plane
	coded []bool
	fIdx  int

	ctx *contexts
	br  binDecoder

	transforms map[int]*dct.Transform
	dst4       *dct.Transform

	// scr is the per-worker scratch arena; owned exclusively by this decoder
	// for the duration of the chunk.
	scr *scratch

	// cancel, when non-nil, is a cancellable context polled once per CTU —
	// the decoder-side twin of encoder.cancel (DESIGN.md §12).
	cancel context.Context

	prevMode intra.Mode
}

// checkPreamble validates the fixed 8-byte preamble plus the minimum header
// tail shared by every container version.
func checkPreamble(data []byte) error {
	if len(data) < 4 {
		return truncatedf("codec: %d-byte stream", len(data))
	}
	for i := range magic {
		if data[i] != magic[i] {
			return corruptf("codec: bad magic")
		}
	}
	if len(data) < 12 {
		return truncatedf("codec: %d-byte stream", len(data))
	}
	return nil
}

// parseCommonHeader reads the header fields shared by both container
// versions (profile, tools, qp, the optional entropy-backend extension,
// frame count and dims), returning the offset of the first version-specific
// byte. ransTab is non-nil iff the header carries a valid rANS backend
// extension, in which case tools.Backend is set to BackendRANS.
func parseCommonHeader(data []byte) (prof Profile, tools Tools, qp int, dims [][2]int, ransTab *[nCtxSlots]uint8, off int, err error) {
	fail := func(err error) (Profile, Tools, int, [][2]int, *[nCtxSlots]uint8, int, error) {
		return prof, tools, 0, nil, nil, 0, err
	}
	prof, ok := profileByID[data[5]]
	if !ok {
		return fail(corruptf("codec: unknown profile id %d", data[5]))
	}
	tools = toolsFromBits(data[6])
	qp = int(data[7])
	if qp > dct.MaxQP {
		return fail(corruptf("codec: qp %d out of range", qp))
	}
	off = 8
	if data[6]&toolsBackendExt != 0 {
		// Backend extension: backend id, then (for rANS) the slot count and
		// the shared probability table. Every reserved id — including 0,
		// since a CABAC stream never carries the extension — is a structural
		// violation, never misparsed as some other backend.
		if len(data) < off+1 {
			return fail(truncatedf("codec: header ends before backend id"))
		}
		id := data[off]
		off++
		if id != uint8(BackendRANS) {
			return fail(corruptf("codec: unknown entropy backend %d", id))
		}
		if len(data) < off+1+nCtxSlots {
			return fail(truncatedf("codec: header ends inside backend extension"))
		}
		if data[off] != nCtxSlots {
			return fail(corruptf("codec: rans table has %d slots, want %d", data[off], nCtxSlots))
		}
		off++
		ransTab = new([nCtxSlots]uint8)
		copy(ransTab[:], data[off:off+nCtxSlots])
		for s, p := range ransTab {
			if p == 0 {
				// QuantizeProb0 never emits 0; a zero byte is damage, and
				// accepting it would let ProbToFreq's clamp silently reshape
				// the stream's probabilities.
				return fail(corruptf("codec: rans slot %d has zero probability", s))
			}
		}
		off += nCtxSlots
		tools.Backend = BackendRANS
	}
	if len(data) < off+4 {
		return fail(truncatedf("codec: header ends before frame count"))
	}
	nFrames := int(binary.BigEndian.Uint32(data[off:]))
	off += 4
	if nFrames <= 0 || nFrames > 1<<20 {
		return fail(corruptf("codec: frame count %d out of range", nFrames))
	}
	if len(data) < off+8*nFrames+4 {
		// Allocation cap: the dim table is sized from the header, so reject
		// counts the remaining bytes cannot possibly hold before any make.
		return fail(truncatedf("codec: header ends inside %d-entry dim table", nFrames))
	}
	dims = make([][2]int, nFrames)
	totalPix := int64(0)
	for i := range dims {
		dims[i][0] = int(binary.BigEndian.Uint32(data[off:]))
		dims[i][1] = int(binary.BigEndian.Uint32(data[off+4:]))
		off += 8
		// Dims above the profile's frame limit can never have been emitted
		// by the encoder; rejecting them here also caps the planes a forged
		// header can make the decoder allocate (§hardening, DESIGN.md §9).
		if dims[i][0] <= 0 || dims[i][1] <= 0 ||
			dims[i][0] > prof.MaxFrameDim || dims[i][1] > prof.MaxFrameDim {
			return fail(corruptf("codec: frame %d dims %dx%d out of range",
				i, dims[i][0], dims[i][1]))
		}
		totalPix += int64(dims[i][0]) * int64(dims[i][1])
	}
	if totalPix > maxDecodePixels {
		return fail(corruptf("codec: header declares %d pixels, cap is %d",
			totalPix, int64(maxDecodePixels)))
	}
	return prof, tools, qp, dims, ransTab, off, nil
}

// maxDecodePixels caps the total source pixels a container header may
// declare (~256 Mpx ≈ 256 MB of planes). A CABAC payload reads zeros past
// its end instead of failing, so without this cap a few forged header bytes
// could commit the decoder to gigabytes of plane allocations before any
// payload byte is validated. Raise it if tensors beyond 256 Mpx per decode
// call ever become real; the fuzz harness relies on it staying finite.
const maxDecodePixels = 1 << 28

// decodeChunkPayload decodes one independent substream covering the given
// frame dims into freshly allocated planes, using the caller's scratch s for
// every transient buffer. Distinct chunks may be decoded concurrently as
// long as each call owns its scratch.
//
// For the rANS backend, ransTab is the header's shared probability table and
// laneParallel chooses whether the payload's interleaved states pre-decode
// on goroutines (surplus pool workers) or serially; the result is identical.
func decodeChunkPayload(ctx context.Context, payload []byte, dims [][2]int, prof Profile, tools Tools, qp int, ransTab *[nCtxSlots]uint8, laneParallel bool, s *scratch) (planes []*frame.Plane, err error) {
	// recover() must be called directly by the deferred function, so the
	// panic trap is inlined here rather than delegated to a helper. Known
	// decode panics travel as decodeError values; a cancelAbort carries a
	// context cancellation out of the per-CTU loop; anything else (an index
	// out of range, a failed allocation guard) is a defect we still refuse
	// to let take the process down — it surfaces as ErrCorrupt with the
	// panic payload preserved for debugging.
	defer func() {
		if r := recover(); r != nil {
			switch v := r.(type) {
			case decodeError:
				err = classifyStreamErr(v.err)
			case cancelAbort:
				err = v.err
			default:
				err = corruptf("codec: decode panic: %v", r)
			}
			planes = nil
		}
	}()

	d := &s.dec
	*d = decoder{
		prof:       prof,
		tools:      tools,
		qp:         qp,
		ctx:        s.contexts(),
		transforms: s.transforms,
		dst4:       s.dst4,
		scr:        s,
		cancel:     cancellable(ctx),
	}
	var rc *ransChunk
	switch {
	case tools.Backend == BackendRANS:
		if ransTab == nil {
			return nil, corruptf("codec: rans chunk without a header table")
		}
		// Pre-decode every context bin through the interleaved states before
		// the (serial) syntax parse; this is where the backend's intra-chunk
		// parallelism lives.
		rc, err = parseRansPayload(payload, ransTab, dimsPixels(dims), laneParallel)
		if err != nil {
			return nil, classifyStreamErr(err)
		}
		d.br = ransBinDec{c: rc, slotOf: s.ransSlots()}
	case tools.CABAC:
		d.br = cabacBinDec{cabac.NewDecoder(payload)}
	default:
		d.br = rawBinDec{bits.NewReader(payload)}
	}

	planes = make([]*frame.Plane, len(dims))
	for i := range dims {
		d.fIdx = i
		planes[i] = d.decodeFrame(dims[i][0], dims[i][1])
	}
	if rc != nil {
		// Strict end-of-chunk rule: the syntax parse must have consumed every
		// pre-decoded bin and bypass bit the payload declared.
		if err := rc.close(); err != nil {
			return nil, err
		}
	}
	return planes, nil
}

func (d *decoder) decodeFrame(srcW, srcH int) *frame.Plane {
	d.prev = d.recon
	d.w = padTo(srcW, d.prof.CTUSize)
	d.h = padTo(srcH, d.prof.CTUSize)
	// The padded reconstruction is recycled from the scratch arena; stale
	// contents are safe because no uncoded pixel is ever read (mirrors the
	// encoder, which is what keeps the two reconstructions bit-identical).
	d.recon = d.scr.reconPlane.Reuse(d.w, d.h)
	d.coded = d.scr.codedMask(d.w * d.h)
	d.prevMode = intra.DC

	for y := 0; y < d.h; y += d.prof.CTUSize {
		for x := 0; x < d.w; x += d.prof.CTUSize {
			// Cooperative cancellation point, mirroring the encoder: one
			// poll per CTU, one nil check when not cancellable.
			if d.cancel != nil {
				if err := d.cancel.Err(); err != nil {
					panic(cancelAbort{err})
				}
			}
			d.parseCU(x, y, d.prof.CTUSize, 0)
		}
	}
	crop := frame.NewPlane(srcW, srcH)
	for y := 0; y < srcH; y++ {
		copy(crop.Row(y), d.recon.Row(y)[:srcW])
	}
	d.recon = crop
	return crop
}

// Tool/profile split rules must match the encoder bit for bit.
func (d *decoder) effMinCU() int {
	if !d.tools.Partitioning {
		n := fixedCUSize
		if n > d.prof.MaxTransform {
			n = d.prof.MaxTransform
		}
		return n
	}
	return d.prof.MinCUSize
}

func (d *decoder) splitKindFor(size int) splitKind {
	minCU := d.effMinCU()
	if size > d.prof.MaxTransform {
		return splitForced
	}
	if !d.tools.Partitioning {
		if size > minCU {
			return splitForced
		}
		return splitLeafOnly
	}
	if size > minCU {
		return splitSignaled
	}
	return splitLeafOnly
}

func (d *decoder) parseCU(x, y, size, depth int) {
	split := false
	switch d.splitKindFor(size) {
	case splitForced:
		split = true
	case splitSignaled:
		split = d.br.bit(&d.ctx.split[min(depth, len(d.ctx.split)-1)]) == 1
	case splitLeafOnly:
	}
	if split {
		h := size / 2
		for i := 0; i < 4; i++ {
			d.parseCU(x+(i%2)*h, y+(i/2)*h, h, depth+1)
		}
		return
	}
	d.parseLeaf(x, y, size)
}

func (d *decoder) parseLeaf(x, y, size int) {
	var (
		isInter  bool
		mvx, mvy int32
		mode     = intra.DC
	)
	if d.tools.InterPred && d.fIdx > 0 {
		isInter = d.br.bit(&d.ctx.interFlag) == 1
	}
	if isInter {
		mvx = unzigzag(egDecode(d.br, 1))
		mvy = unzigzag(egDecode(d.br, 1))
	} else if d.tools.IntraPred {
		if d.br.bit(&d.ctx.modeSame) == 1 {
			mode = d.prevMode
		} else {
			idx := int(d.br.bypassBits(modeIdxBits(len(d.prof.Modes))))
			if idx >= len(d.prof.Modes) {
				panic(decodeError{errMalformed})
			}
			mode = d.prof.Modes[idx]
		}
		d.prevMode = mode
	}

	s := d.scr
	lev := d.parseResidual(size, d.tools.Transform)

	pred := s.pred[:size*size]
	switch {
	case isInter:
		motionPredict(d.prev, pred, x, y, size, mvx, mvy)
	case d.tools.IntraPred:
		refs := intra.Refs{Above: s.refsAbove[:2*size], Left: s.refsLeft[:2*size]}
		refs = gatherRefsInto(d.recon, d.coded, x, y, size, s.rawRefs[:4*size+1], refs)
		if d.prof.RefSmoothing && intra.UseSmoothing(size, mode) {
			refs = refs.SmoothedInto(intra.Refs{Above: s.smAbove[:2*size], Left: s.smLeft[:2*size]})
		}
		intra.Predict(mode, size, refs, pred)
	default:
		for i := range pred {
			pred[i] = 128
		}
	}

	tr := d.transformFor(size, !isInter)
	rec := s.rec[:size*size]
	reconstructBlockInto(rec, s.coefA[:size*size], pred, lev, d.qp, d.tools.Transform, tr)
	for dy := 0; dy < size; dy++ {
		row := d.recon.Row(y + dy)
		for dx := 0; dx < size; dx++ {
			row[x+dx] = uint8(rec[dy*size+dx])
			d.coded[(y+dy)*d.w+x+dx] = true
		}
	}
}

func (d *decoder) transformFor(size int, isIntra bool) *dct.Transform {
	if size == 4 && isIntra && d.prof.UseDST4 {
		return d.dst4
	}
	return d.transforms[size]
}

// parseResidual decodes one level block into the scratch trial buffer,
// valid until the next parseResidual call.
func (d *decoder) parseResidual(size int, transformed bool) []int32 {
	si := sizeIdx(size)
	scan := scanOrder(size)
	if !transformed {
		scan = rasterOrder(size)
	}
	lev := d.scr.trialLev[:size*size]
	clear(lev)
	if d.br.bit(&d.ctx.cbf[si]) == 0 {
		return lev
	}
	k := uint(0)
	for _, pos := range scan {
		if d.br.bit(&d.ctx.sig[si][diagBin(pos, size)]) == 0 {
			continue
		}
		a := int32(1)
		if d.br.bit(&d.ctx.g1[si]) == 1 {
			a = 2
			if d.br.bit(&d.ctx.g2[si]) == 1 {
				rem := egDecode(d.br, k)
				a = 3 + int32(rem)
				if rem > 3<<k && k < 4 {
					k++
				}
			}
		}
		if d.br.bypass() == 1 {
			a = -a
		}
		lev[pos] = a
	}
	return lev
}
