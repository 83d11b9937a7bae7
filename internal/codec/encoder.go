package codec

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/dct"
	"repro/internal/frame"
	"repro/internal/intra"
)

// magic identifies an LLM.265 elementary stream.
var magic = [4]byte{'L', '2', '6', '5'}

// Stats summarizes an encode.
type Stats struct {
	Bits         int     // total bitstream size in bits, headers included
	Pixels       int     // number of source pixels across all frames
	MSE          float64 // mean squared error in 8-bit pixel units
	BitsPerPixel float64 // Bits / Pixels
	Chunks       int     // independently decodable substreams in the container
}

// Encoder carries the per-sequence encoding state. Create one per Encode
// call; it is not safe for concurrent use.
type encoder struct {
	prof  Profile
	tools Tools
	qp    int

	w, h  int // padded dims of the current frame
	orig  *frame.Plane
	recon *frame.Plane
	prev  *frame.Plane // previous frame's reconstruction (inter)
	coded []bool       // per-pixel "already reconstructed" mask
	fIdx  int

	ctx    *contexts
	bw     binEncoder
	lambda float64

	transforms map[int]*dct.Transform
	dst4       *dct.Transform

	// scr is the per-worker scratch arena every hot-path buffer comes from;
	// owned exclusively by this encoder for the duration of the chunk.
	scr *scratch

	// cancel, when non-nil, is a cancellable context polled once per CTU
	// (cooperative cancellation, DESIGN.md §12): a canceled encode aborts via
	// a cancelAbort panic that encodeChunk traps at the chunk boundary. Nil
	// for non-cancellable contexts, so the hot path pays one pointer check.
	cancel context.Context

	prevModeEmit intra.Mode // mode predictor state for emission

	// rec accumulates per-stage times and bit accounts for this chunk when
	// observability is enabled; nil (the default) keeps the hot path free of
	// clock reads and bit-length queries.
	rec *stageRecorder
}

// encodeSerial codes planes as one shared-context substream in the
// version-1 container. It is ContainerAuto's single-chunk path; called
// directly it also writes multi-plane v1 containers, which the golden
// corpus and the decoder tests use as fixtures.
func encodeSerial(ctx context.Context, planes []*frame.Plane, qp int, prof Profile, tools Tools, m *encMetrics) ([]byte, Stats, error) {
	if err := validateEncode(planes, qp, prof, tools); err != nil {
		return nil, Stats{}, err
	}
	if tools.Backend != BackendCABAC {
		// rANS containers are always version 3: the shared probability table
		// lives in the checksummed header's backend extension, so the v1
		// framing cannot carry them. CABAC output is untouched.
		return encodeV3(ctx, planes, qp, prof, tools, 1, m, false, nil)
	}
	var chunkStart time.Time
	if m != nil {
		chunkStart = time.Now()
	}
	s := getScratch()
	payload, _, recs, err := encodeChunk(ctx, planes, qp, prof, tools, m, s)
	putScratch(s)
	if err != nil {
		return nil, Stats{}, err
	}
	if m != nil {
		m.chunkNs.ObserveSince(chunkStart)
	}

	var tContainer time.Time
	if m != nil {
		tContainer = time.Now()
	}
	var head bytes.Buffer
	head.Write(magic[:])
	head.WriteByte(1) // version
	head.WriteByte(prof.id())
	head.WriteByte(tools.bits())
	head.WriteByte(uint8(qp))
	if err := binary.Write(&head, binary.BigEndian, uint32(len(planes))); err != nil {
		return nil, Stats{}, err
	}
	for _, p := range planes {
		binary.Write(&head, binary.BigEndian, uint32(p.W))
		binary.Write(&head, binary.BigEndian, uint32(p.H))
	}
	binary.Write(&head, binary.BigEndian, uint32(len(payload)))
	out := append(head.Bytes(), payload...)

	st := computeStats(planes, recs, len(out)*8)
	st.Chunks = 1
	if m != nil {
		m.stageContainer.ObserveSince(tContainer)
		m.recordEncodeTotals(st, len(out), len(payload), len(planes))
	}
	return out, st, nil
}

// validateEncode checks the preconditions every encode path shares. Plane
// defects that leave nothing to code — no planes, a nil plane, a zero
// dimension, or fewer pixels than the dimensions claim — match
// ErrEmptyInput.
func validateEncode(planes []*frame.Plane, qp int, prof Profile, tools Tools) error {
	if len(planes) == 0 {
		return fmt.Errorf("codec: no planes to encode: %w", ErrEmptyInput)
	}
	for i, p := range planes {
		switch {
		case p == nil:
			return fmt.Errorf("codec: plane %d is nil: %w", i, ErrEmptyInput)
		case p.W <= 0 || p.H <= 0:
			return fmt.Errorf("codec: plane %d is %dx%d: %w", i, p.W, p.H, ErrEmptyInput)
		case len(p.Pix) < p.W*p.H:
			return fmt.Errorf("codec: plane %d is %dx%d but holds %d pixels: %w", i, p.W, p.H, len(p.Pix), ErrEmptyInput)
		}
	}
	if qp < 0 || qp > dct.MaxQP {
		return fmt.Errorf("codec: qp %d out of range", qp)
	}
	if tools.Backend != BackendCABAC && tools.Backend != BackendRANS {
		return fmt.Errorf("codec: unknown entropy backend %d", tools.Backend)
	}
	if tools.Backend == BackendRANS && !tools.CABAC {
		// The backend selects the coder for context-coded bins; with the
		// entropy stage ablated away there are no context-coded bins to route.
		return errors.New("codec: rans backend requires the entropy-coding stage (Tools.CABAC)")
	}
	for _, p := range planes {
		if p.W > prof.MaxFrameDim || p.H > prof.MaxFrameDim {
			return fmt.Errorf("codec: frame %dx%d exceeds %s limit %d",
				p.W, p.H, prof.Name, prof.MaxFrameDim)
		}
	}
	return nil
}

// encodeChunk codes a group of planes as one independent sequence — fresh
// entropy contexts, fresh mode predictor, inter prediction (if enabled)
// confined to the group — and returns the raw entropy payload plus the
// per-plane reconstructions (cropped to source dims). Each call owns all of
// its encoder state, so distinct chunks may be encoded concurrently; the
// per-chunk stage recorder is equally private and flushes into the shared
// atomic metric handles only at the end of the call.
//
// Cancellation: the ctx (when cancellable) is polled once per CTU inside
// encodeFrame; a cancellation aborts the chunk mid-flight via a cancelAbort
// panic trapped here, returning ctx's error with no partial output. The
// scratch stays reusable — every buffer is re-initialized per chunk anyway.
// Under the rANS backend the chunk's bins are recorded rather than coded:
// payload comes back nil and rec holds the per-slot bin lists, which the
// container layer assembles into a payload once the shared probability table
// exists (pass 2). The record is heap-allocated per chunk — it must outlive
// the scratch, which the same worker reuses for its next chunk.
func encodeChunk(ctx context.Context, planes []*frame.Plane, qp int, prof Profile, tools Tools, m *encMetrics, s *scratch) (payload []byte, rec *ransRecord, recs []*frame.Plane, err error) {
	defer func() {
		if r := recover(); r != nil {
			ca, ok := r.(cancelAbort)
			if !ok {
				panic(r)
			}
			payload, rec, recs, err = nil, nil, nil, ca.err
		}
	}()
	e := &s.enc
	*e = encoder{
		prof:       prof,
		tools:      tools,
		qp:         qp,
		ctx:        s.contexts(),
		lambda:     0.12 * dct.Qstep(qp) * dct.Qstep(qp),
		transforms: s.transforms,
		dst4:       s.dst4,
		scr:        s,
		cancel:     cancellable(ctx),
	}
	if tools.Backend == BackendRANS {
		rec = newRansRecord()
		e.bw = ransBinEnc{rec: rec, slotOf: s.ransSlots()}
	} else {
		e.bw = s.binEnc(tools.CABAC)
	}
	if m != nil {
		e.rec = &stageRecorder{m: m}
	}
	recs = make([]*frame.Plane, len(planes))
	for i, p := range planes {
		e.fIdx = i
		e.encodeFrame(p)
		recs[i] = e.recon
	}
	if e.rec != nil {
		e.rec.flush()
	}
	if rec != nil {
		return nil, rec, recs, nil
	}
	// finish() returns a slice aliasing the pooled bin coder's buffer; copy
	// the payload out so the scratch can be reused (or repooled) while the
	// caller still holds the bytes. The copy is also exact-size, so the
	// container assembly never retains a grown append buffer.
	out := e.bw.finish()
	payload = make([]byte, len(out))
	copy(payload, out)
	return payload, nil, recs, nil
}

// computeStats aggregates size and distortion over the source planes and
// their reconstructions.
func computeStats(planes, recs []*frame.Plane, bits int) Stats {
	var st Stats
	st.Bits = bits
	var sse float64
	for i, p := range planes {
		st.Pixels += p.W * p.H
		r := recs[i]
		for y := 0; y < p.H; y++ {
			for x := 0; x < p.W; x++ {
				d := float64(int(p.At(x, y)) - int(r.At(x, y)))
				sse += d * d
			}
		}
	}
	st.MSE = sse / float64(st.Pixels)
	st.BitsPerPixel = float64(st.Bits) / float64(st.Pixels)
	return st
}

// padTo returns v rounded up to a multiple of m.
func padTo(v, m int) int { return (v + m - 1) / m * m }

// padPlaneInto edge-replicates p into dst, which is already sized to the
// padded dims. Every dst pixel is written, so dst may be a recycled plane.
func padPlaneInto(dst, p *frame.Plane) {
	if p.W == dst.W && p.H == dst.H {
		copy(dst.Pix, p.Pix)
		return
	}
	for y := 0; y < dst.H; y++ {
		sy := y
		if sy >= p.H {
			sy = p.H - 1
		}
		srow := p.Row(sy)
		drow := dst.Row(y)
		copy(drow, srow)
		edge := srow[p.W-1]
		for x := p.W; x < dst.W; x++ {
			drow[x] = edge
		}
	}
}

func (e *encoder) encodeFrame(src *frame.Plane) {
	e.prev = e.recon // previous frame's cropped reconstruction (may be nil)
	e.w = padTo(src.W, e.prof.CTUSize)
	e.h = padTo(src.H, e.prof.CTUSize)
	// The padded source and reconstruction live in the scratch arena. The
	// recycled recon starts with unspecified contents, which is safe because
	// nothing reads an uncoded pixel: gatherRefs consults the coverage mask,
	// snapshot/restore round-trips bytes verbatim, and by the end of the CTU
	// loop every padded pixel has been written by applyLeaf. The golden
	// conformance corpus pins this reasoning byte-for-byte.
	e.orig = e.scr.origPlane.Reuse(e.w, e.h)
	padPlaneInto(e.orig, src)
	e.recon = e.scr.reconPlane.Reuse(e.w, e.h)
	e.coded = e.scr.codedMask(e.w * e.h)
	e.prevModeEmit = intra.DC

	for y := 0; y < e.h; y += e.prof.CTUSize {
		for x := 0; x < e.w; x += e.prof.CTUSize {
			// Cooperative cancellation point: one poll per CTU (a CTU costs
			// tens of microseconds, so cancellation latency stays far below
			// the serve layer's 100ms promptness bound) and a single nil
			// check when the encode is not cancellable.
			if e.cancel != nil {
				if err := e.cancel.Err(); err != nil {
					panic(cancelAbort{err})
				}
			}
			// Decisions from the previous CTU were emitted; recycle them.
			e.scr.resetCTU()
			if e.rec != nil {
				t0 := time.Now()
				d := e.decideCU(x, y, e.prof.CTUSize, 0)
				t1 := time.Now()
				e.rec.decideNs += int64(t1.Sub(t0))
				e.emitCU(d, x, y, e.prof.CTUSize, 0)
				e.rec.entropyNs += int64(time.Since(t1))
				continue
			}
			d := e.decideCU(x, y, e.prof.CTUSize, 0)
			e.emitCU(d, x, y, e.prof.CTUSize, 0)
		}
	}
	// Crop the reconstruction back to the source dims. The crop is a fresh
	// plane — it escapes the codec as API output (and as the next frame's
	// inter reference), so it must not alias the arena.
	crop := frame.NewPlane(src.W, src.H)
	for y := 0; y < src.H; y++ {
		copy(crop.Row(y), e.recon.Row(y)[:src.W])
	}
	e.recon = crop
}

// cuDec is a decided coding unit: either a split with four children or a
// leaf with its prediction decision and quantized levels.
type cuDec struct {
	split    bool
	children [4]*cuDec

	inter  bool
	mvx    int32
	mvy    int32
	mode   intra.Mode
	levels []int32 // row-major n×n quantized levels
	cost   float64
}

// effMinCU reports the leaf size floor given the tools.
func (e *encoder) effMinCU() int {
	if !e.tools.Partitioning {
		n := fixedCUSize
		if n > e.prof.MaxTransform {
			n = e.prof.MaxTransform
		}
		return n
	}
	return e.prof.MinCUSize
}

// splitKind classifies how a CU of the given size partitions: forced split,
// signaled split, or leaf-only.
type splitKind int

const (
	splitForced splitKind = iota
	splitSignaled
	splitLeafOnly
)

func (e *encoder) splitKindFor(size int) splitKind {
	minCU := e.effMinCU()
	if size > e.prof.MaxTransform {
		return splitForced
	}
	if !e.tools.Partitioning {
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

func (e *encoder) decideCU(x, y, size, depth int) *cuDec {
	switch e.splitKindFor(size) {
	case splitForced:
		d := e.scr.newNode()
		d.split = true
		h := size / 2
		for i := 0; i < 4; i++ {
			cx, cy := x+(i%2)*h, y+(i/2)*h
			d.children[i] = e.decideCU(cx, cy, h, depth+1)
			d.cost += d.children[i].cost
		}
		return d
	case splitLeafOnly:
		leaf := e.decideLeaf(x, y, size)
		e.applyLeaf(leaf, x, y, size)
		return leaf
	}

	// Signaled split: compare leaf vs 4-way split by RD cost.
	leaf := e.decideLeaf(x, y, size)

	// Snapshot the block region before the children trial. Snapshot buffers
	// are per-depth in the scratch arena; the recursion nests them exactly.
	snap := e.snapshot(x, y, size, depth)

	split := e.scr.newNode()
	split.split = true
	split.cost = e.lambda * 1.0 // ~1 bit split flag
	h := size / 2
	for i := 0; i < 4; i++ {
		cx, cy := x+(i%2)*h, y+(i/2)*h
		split.children[i] = e.decideCU(cx, cy, h, depth+1)
		split.cost += split.children[i].cost
	}

	leafTotal := leaf.cost + e.lambda*1.0 // leaf also pays the split flag
	if leafTotal <= split.cost {
		e.restore(snap, x, y, size)
		e.applyLeaf(leaf, x, y, size)
		leaf.cost = leafTotal
		return leaf
	}
	return split
}

func (e *encoder) snapshot(x, y, size, depth int) []uint8 {
	s := e.scr.snap[depth][:size*size]
	for dy := 0; dy < size; dy++ {
		copy(s[dy*size:dy*size+size], e.recon.Row(y + dy)[x:x+size])
	}
	return s
}

func (e *encoder) restore(s []uint8, x, y, size int) {
	for dy := 0; dy < size; dy++ {
		copy(e.recon.Row(y + dy)[x:x+size], s[dy*size:dy*size+size])
	}
}

// applyLeaf reconstructs the decided leaf into the recon plane and marks the
// region coded.
func (e *encoder) applyLeaf(d *cuDec, x, y, size int) {
	s := e.scr
	pred := e.predictFor(d, x, y, size)
	rec := s.rec[:size*size]
	reconstructBlockInto(rec, s.coefA[:size*size], pred, d.levels, e.qp, e.tools.Transform, e.transformFor(size, !d.inter))
	for dy := 0; dy < size; dy++ {
		row := e.recon.Row(y + dy)
		for dx := 0; dx < size; dx++ {
			row[x+dx] = uint8(rec[dy*size+dx])
			e.coded[(y+dy)*e.w+x+dx] = true
		}
	}
}

// transformFor picks the transform for a block (DST-VII for 4×4 intra when
// the profile enables it).
func (e *encoder) transformFor(size int, isIntra bool) *dct.Transform {
	if size == 4 && isIntra && e.prof.UseDST4 {
		return e.dst4
	}
	return e.transforms[size]
}

// predictFor computes the prediction signal for a decided leaf into the
// scratch pred buffer (valid until the next predictFor/motion call).
func (e *encoder) predictFor(d *cuDec, x, y, size int) []int32 {
	s := e.scr
	pred := s.pred[:size*size]
	switch {
	case d.inter:
		e.motionPredict(pred, x, y, size, d.mvx, d.mvy)
	case e.tools.IntraPred:
		refs := e.gatherRefs(x, y, size)
		if e.prof.RefSmoothing && intra.UseSmoothing(size, d.mode) {
			refs = refs.SmoothedInto(intra.Refs{Above: s.smAbove[:2*size], Left: s.smLeft[:2*size]})
		}
		intra.Predict(d.mode, size, refs, pred)
	default:
		for i := range pred {
			pred[i] = 128
		}
	}
	return pred
}

// gatherRefs builds intra reference samples from the reconstruction into the
// scratch reference buffers (valid until the next gatherRefs call).
func (e *encoder) gatherRefs(x, y, size int) intra.Refs {
	s := e.scr
	refs := intra.Refs{Above: s.refsAbove[:2*size], Left: s.refsLeft[:2*size]}
	return gatherRefsInto(e.recon, e.coded, x, y, size, s.rawRefs[:4*size+1], refs)
}

// gatherRefs is the allocating form, kept for tests and out-of-band callers.
func gatherRefs(recon *frame.Plane, coded []bool, x, y, size int) intra.Refs {
	raw := make([]refSample, 4*size+1)
	return gatherRefsInto(recon, coded, x, y, size, raw, intra.NewRefs(size))
}

// gatherRefsInto fills refs (whose Above/Left must be 2·size long) from the
// reconstruction with HEVC-style substitution of unavailable samples, using
// raw (4·size+1 entries) as the substitution workspace. Returns refs with
// its Corner set.
func gatherRefsInto(recon *frame.Plane, coded []bool, x, y, size int, raw []refSample, refs intra.Refs) intra.Refs {
	w, h := recon.W, recon.H
	n2 := 2 * size
	avail := func(px, py int) bool {
		return px >= 0 && py >= 0 && px < w && py < h && coded[py*w+px]
	}
	// Collect raw samples with availability, order: below-left (bottom to
	// top), corner, above and above-right (left to right) — the HEVC
	// reference scan.
	raw = raw[:0]
	for i := n2 - 1; i >= 0; i-- { // left column downward stored reversed
		if avail(x-1, y+i) {
			raw = append(raw, refSample{int32(recon.At(x-1, y+i)), true})
		} else {
			raw = append(raw, refSample{0, false})
		}
	}
	if avail(x-1, y-1) {
		raw = append(raw, refSample{int32(recon.At(x-1, y-1)), true})
	} else {
		raw = append(raw, refSample{0, false})
	}
	for i := 0; i < n2; i++ {
		if avail(x+i, y-1) {
			raw = append(raw, refSample{int32(recon.At(x+i, y-1)), true})
		} else {
			raw = append(raw, refSample{0, false})
		}
	}
	// Substitute: find the first available; if none, all 128. Then fill
	// forward and backward.
	first := -1
	for i, r := range raw {
		if r.ok {
			first = i
			break
		}
	}
	if first == -1 {
		for i := range raw {
			raw[i] = refSample{128, true}
		}
	} else {
		for i := first - 1; i >= 0; i-- {
			raw[i] = refSample{raw[i+1].v, true}
		}
		for i := first + 1; i < len(raw); i++ {
			if !raw[i].ok {
				raw[i] = refSample{raw[i-1].v, true}
			}
		}
	}
	for i := 0; i < n2; i++ {
		refs.Left[i] = raw[n2-1-i].v
	}
	refs.Corner = raw[n2].v
	for i := 0; i < n2; i++ {
		refs.Above[i] = raw[n2+1+i].v
	}
	return refs
}

// motionPredict copies the motion-compensated block from the previous frame.
func (e *encoder) motionPredict(dst []int32, x, y, size int, mvx, mvy int32) {
	motionPredict(e.prev, dst, x, y, size, mvx, mvy)
}

func motionPredict(prev *frame.Plane, dst []int32, x, y, size int, mvx, mvy int32) {
	for dy := 0; dy < size; dy++ {
		for dx := 0; dx < size; dx++ {
			sx := clampInt(x+dx+int(mvx), 0, prev.W-1)
			sy := clampInt(y+dy+int(mvy), 0, prev.H-1)
			dst[dy*size+dx] = int32(prev.At(sx, sy))
		}
	}
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// rdCandidates is how many of the coarse-ranked intra modes receive a full
// rate-distortion trial in the default (SAD-coarse) search.
const rdCandidates = 3

// fastRDCandidates is the RD survivor count under Profile.FastSearch: the
// SATD coarse stage ranks modes well enough that two survivors recover the
// default search's quality (see TestFastSearchEnvelope for the tested MSE
// envelope) while cutting the full-RD trial count by a third.
const fastRDCandidates = 2

// satdCoarseScore computes the FastSearch coarse score: the SATD (Hadamard
// transformed absolute difference) of the prediction residual, decimated 2:1
// in both directions for blocks of 16 and up. Full-resolution SATD on a
// 32×32 block costs more than the RD trial it exists to avoid; decimation
// keeps the Hadamard's sensitivity to how well a predictor tracks the
// block's dominant gradients while cutting the coarse stage by 4×. Modes are
// only ranked against each other within one block, so the decimated score
// needs no rescaling — the ×4 keeps its magnitude comparable to the
// full-resolution score for anyone reading traces.
func satdCoarseScore(orig, pred, res []int32, size int) int64 {
	if size < 16 {
		n2 := size * size
		res = res[:n2]
		for i := 0; i < n2; i++ {
			res[i] = orig[i] - pred[i]
		}
		return dct.SATD(res, size)
	}
	h := size / 2
	res = res[:h*h]
	for y := 0; y < h; y++ {
		srcBase := 2 * y * size
		dstBase := y * h
		for x := 0; x < h; x++ {
			res[dstBase+x] = orig[srcBase+2*x] - pred[srcBase+2*x]
		}
	}
	return 4 * dct.SATD(res, h)
}

// tryIntraRD runs one full rate-distortion trial; on improvement it
// overwrites *best and copies the candidate levels into bestLev (the one
// arena-backed level block this leaf owns).
func (e *encoder) tryIntraRD(m intra.Mode, orig, pred []int32, size int, best *cuDec, bestLev []int32) {
	lev, dist, rbits := e.trialResidual(orig, pred, size, true)
	modeBits := 1.0 + math.Log2(float64(len(e.prof.Modes)))
	cost := dist + e.lambda*(rbits+modeBits)
	if cost < best.cost {
		*best = cuDec{mode: m, levels: bestLev, cost: cost}
		copy(bestLev, lev)
	}
}

// decideLeaf searches prediction choices for an undivided CU and returns the
// best decision without touching the recon plane. Every buffer it touches
// comes from the scratch arena; the returned node and its levels live in the
// per-CTU bump arenas.
func (e *encoder) decideLeaf(x, y, size int) *cuDec {
	s := e.scr
	n2 := size * size
	orig := s.orig[:n2]
	for dy := 0; dy < size; dy++ {
		row := e.orig.Row(y + dy)
		base := dy * size
		for dx := 0; dx < size; dx++ {
			orig[base+dx] = int32(row[x+dx])
		}
	}

	best := s.newNode()
	best.cost = math.Inf(1)
	bestLev := s.newLevels(n2)

	if e.tools.IntraPred {
		var tIntra time.Time
		if e.rec != nil {
			tIntra = time.Now()
		}
		refs := e.gatherRefs(x, y, size)
		// Coarse-score all modes (SAD by default, SATD under FastSearch),
		// full-RD only the top survivors. The smoothed reference rows are
		// mode-independent, so they are computed at most once per leaf.
		fast := e.prof.FastSearch && !e.prof.exhaustiveRD
		var smRefs intra.Refs
		smoothedReady := false
		cands := s.cands[:0]
		for mi, m := range e.prof.Modes {
			r := refs
			if e.prof.RefSmoothing && intra.UseSmoothing(size, m) {
				if !smoothedReady {
					smRefs = refs.SmoothedInto(intra.Refs{Above: s.smAbove[:2*size], Left: s.smLeft[:2*size]})
					smoothedReady = true
				}
				r = smRefs
			}
			pred := s.predAt(mi, n2)
			intra.Predict(m, size, r, pred)
			var score int64
			if fast {
				score = satdCoarseScore(orig, pred, s.res[:], size)
			} else {
				for i := range orig {
					d := orig[i] - pred[i]
					if d < 0 {
						d = -d
					}
					score += int64(d)
				}
			}
			cands = append(cands, modeCand{m: m, mi: mi, score: score})
		}
		if e.rec != nil {
			// The coarse ranking (prediction of every profile mode) is the
			// intra-search share; the full-RD trials below charge their
			// transform+quant work to the transform stage on their own.
			e.rec.intraNs += int64(time.Since(tIntra))
		}
		switch {
		case e.prof.exhaustiveRD:
			// Quality ceiling (tests only): full RD on every mode in
			// profile order, no coarse pruning.
			for _, c := range cands {
				e.tryIntraRD(c.m, orig, s.predAt(c.mi, n2), size, best, bestLev)
			}
		default:
			// Stable top-K selection: ascending score, ties ranked in
			// reverse scoring order — the last-scored tying mode wins, which
			// for the shipped profiles prefers the higher angular mode over
			// Planar/DC on flat blocks. This deterministic rule is part of
			// the bitstream contract pinned by the golden conformance corpus
			// (golden_test.go): changing it changes output bytes. An
			// explicit insertion-based selection is used instead of
			// sort.Slice both for allocation-freedom on the hot path and
			// because sort.Slice's tie order is implementation-defined.
			kTop := rdCandidates
			if fast {
				kTop = fastRDCandidates
			}
			var top [rdCandidates]int
			topN := 0
			for ci := range cands {
				pos := topN
				for pos > 0 && cands[ci].score <= cands[top[pos-1]].score {
					pos--
				}
				if pos >= kTop {
					continue
				}
				if topN < kTop {
					topN++
				}
				copy(top[pos+1:topN], top[pos:topN-1])
				top[pos] = ci
			}
			// Full RD on the top coarse candidates only; Planar and DC
			// compete in the coarse ranking like every other mode.
			for i := 0; i < topN; i++ {
				e.tryIntraRD(cands[top[i]].m, orig, s.predAt(cands[top[i]].mi, n2), size, best, bestLev)
			}
		}
	} else {
		pred := s.pred[:n2]
		for i := range pred {
			pred[i] = 128
		}
		lev, dist, rbits := e.trialResidual(orig, pred, size, true)
		*best = cuDec{mode: intra.DC, levels: bestLev, cost: dist + e.lambda*rbits}
		copy(bestLev, lev)
	}

	if e.tools.InterPred && e.fIdx > 0 {
		mvx, mvy := e.motionSearch(orig, x, y, size)
		pred := s.pred[:n2]
		e.motionPredict(pred, x, y, size, mvx, mvy)
		lev, dist, rbits := e.trialResidual(orig, pred, size, false)
		mvBits := float64(egLen(zigzagU(mvx), 1) + egLen(zigzagU(mvy), 1))
		cost := dist + e.lambda*(rbits+mvBits+1)
		if cost < best.cost {
			*best = cuDec{inter: true, mvx: mvx, mvy: mvy, levels: bestLev, cost: cost}
			copy(bestLev, lev)
		}
	}
	return best
}

// motionSearch finds the best integer motion vector within ±searchRange.
const searchRange = 7

func (e *encoder) motionSearch(orig []int32, x, y, size int) (int32, int32) {
	bestSAD := int64(math.MaxInt64)
	var bx, by int32
	pred := e.scr.mcPred[:size*size]
	for my := -searchRange; my <= searchRange; my++ {
		for mx := -searchRange; mx <= searchRange; mx++ {
			e.motionPredict(pred, x, y, size, int32(mx), int32(my))
			var sad int64
			for i := range orig {
				d := orig[i] - pred[i]
				if d < 0 {
					d = -d
				}
				sad += int64(d)
			}
			// Slight zero-bias so (0,0) wins ties.
			sad += int64(absInt32(int32(mx))+absInt32(int32(my))) * int64(size)
			if sad < bestSAD {
				bestSAD, bx, by = sad, int32(mx), int32(my)
			}
		}
	}
	return bx, by
}

func absInt32(v int32) int32 {
	if v < 0 {
		return -v
	}
	return v
}

// trialResidual transforms, quantizes and reconstructs the residual,
// returning the levels (in the scratch trial buffer — valid only until the
// next trial), the SSE distortion and an estimated rate in bits.
func (e *encoder) trialResidual(orig, pred []int32, size int, isIntra bool) ([]int32, float64, float64) {
	var t0 time.Time
	if e.rec != nil {
		t0 = time.Now()
	}
	s := e.scr
	n2 := size * size
	res := s.res[:n2]
	for i := range res {
		res[i] = orig[i] - pred[i]
	}
	lev := s.trialLev[:n2]
	tr := e.transformFor(size, isIntra)
	if e.tools.Transform {
		coef := s.coefA[:n2]
		tr.Forward(coef, res)
		dct.Quantize(lev, coef, e.qp)
	} else {
		quantizeSpatial(lev, res, e.qp)
	}
	rec := s.rec[:n2]
	reconstructBlockInto(rec, s.coefB[:n2], pred, lev, e.qp, e.tools.Transform, tr)
	var sse float64
	for i := range orig {
		d := float64(orig[i] - rec[i])
		sse += d * d
	}
	if e.rec != nil {
		e.rec.xformNs += int64(time.Since(t0))
	}
	return lev, sse, estimateLevelBits(lev, size, e.tools.Transform)
}

// reconstructBlockInto rebuilds pixel values from a prediction and levels
// into rec, using coefScratch (same length) as the dequantization workspace;
// this is the single reconstruction path shared (by construction) with the
// decoder. rec must not alias pred or levels; coefScratch must not alias
// levels.
func reconstructBlockInto(rec, coefScratch, pred, levels []int32, qp int, useTransform bool, tr *dct.Transform) {
	if useTransform {
		dct.Dequantize(coefScratch, levels, qp)
		tr.Inverse(rec, coefScratch)
	} else {
		dequantizeSpatial(rec, levels, qp)
	}
	for i := range rec {
		v := pred[i] + rec[i]
		if v < 0 {
			v = 0
		}
		if v > 255 {
			v = 255
		}
		rec[i] = v
	}
}

// reconstructBlock is the allocating form of reconstructBlockInto, kept for
// tests and out-of-band callers.
func reconstructBlock(pred, levels []int32, size, qp int, useTransform bool, tr *dct.Transform) []int32 {
	n2 := size * size
	rec := make([]int32, n2)
	reconstructBlockInto(rec, make([]int32, n2), pred, levels, qp, useTransform, tr)
	return rec
}

// quantizeSpatial quantizes a spatial residual with the QP step and the same
// dead-zone as the transform path (used when the transform is ablated).
func quantizeSpatial(dst, res []int32, qp int) {
	step := dct.Qstep(qp)
	inv := 1 / step
	for i, r := range res {
		v := float64(r) * inv
		if v >= 0 {
			dst[i] = int32(v + 1.0/3.0)
		} else {
			dst[i] = -int32(-v + 1.0/3.0)
		}
	}
}

func dequantizeSpatial(dst, lev []int32, qp int) {
	step := dct.Qstep(qp)
	for i, l := range lev {
		dst[i] = int32(math.Round(float64(l) * step))
	}
}

// estimateLevelBits approximates the entropy-coded size of a level block for
// RD decisions (the emission phase spends the real bits).
func estimateLevelBits(lev []int32, size int, transformed bool) float64 {
	scan := scanOrder(size)
	if !transformed {
		scan = rasterOrder(size)
	}
	last := -1
	for i := len(scan) - 1; i >= 0; i-- {
		if lev[scan[i]] != 0 {
			last = i
			break
		}
	}
	if last == -1 {
		return 1 // CBF only
	}
	bitsEst := 1.0 // CBF
	for i := 0; i <= last; i++ {
		l := lev[scan[i]]
		if l == 0 {
			bitsEst += 0.6
			continue
		}
		a := l
		if a < 0 {
			a = -a
		}
		bitsEst += 2.0 // sig + sign
		if a > 1 {
			bitsEst += 1
		}
		if a > 2 {
			bitsEst += float64(egLen(uint32(a-3), 0))
		}
	}
	bitsEst += float64(len(scan)-1-last) * 0.08
	return bitsEst
}

// zigzagU maps a signed value to unsigned for Exp-Golomb coding.
func zigzagU(v int32) uint32 {
	if v >= 0 {
		return uint32(v) << 1
	}
	return uint32(-v)<<1 - 1
}

func unzigzag(u uint32) int32 {
	if u&1 == 0 {
		return int32(u >> 1)
	}
	return -int32(u+1) >> 1
}

// emitCU serializes a decided CU tree.
func (e *encoder) emitCU(d *cuDec, x, y, size, depth int) {
	switch e.splitKindFor(size) {
	case splitForced:
		// no flag
	case splitSignaled:
		b := 0
		if d.split {
			b = 1
		}
		if e.rec != nil {
			b0 := e.bw.bitLen()
			e.bw.bit(&e.ctx.split[min(depth, len(e.ctx.split)-1)], b)
			e.rec.bitsPartition += int64(e.bw.bitLen() - b0)
		} else {
			e.bw.bit(&e.ctx.split[min(depth, len(e.ctx.split)-1)], b)
		}
	case splitLeafOnly:
		// no flag, leaf guaranteed
	}
	if d.split {
		h := size / 2
		for i := 0; i < 4; i++ {
			e.emitCU(d.children[i], x+(i%2)*h, y+(i/2)*h, h, depth+1)
		}
		return
	}
	e.emitLeaf(d, size)
}

func (e *encoder) emitLeaf(d *cuDec, size int) {
	var b0 int
	if e.rec != nil {
		b0 = e.bw.bitLen()
	}
	if e.tools.InterPred && e.fIdx > 0 {
		b := 0
		if d.inter {
			b = 1
		}
		e.bw.bit(&e.ctx.interFlag, b)
	}
	if d.inter {
		egEncode(e.bw, zigzagU(d.mvx), 1)
		egEncode(e.bw, zigzagU(d.mvy), 1)
	} else if e.tools.IntraPred {
		same := 0
		if d.mode == e.prevModeEmit {
			same = 1
		}
		e.bw.bit(&e.ctx.modeSame, same)
		if same == 0 {
			idx := e.modeIndex(d.mode)
			e.bw.bypassBits(uint32(idx), modeIdxBits(len(e.prof.Modes)))
		}
		e.prevModeEmit = d.mode
	}
	if e.rec != nil {
		b1 := e.bw.bitLen()
		e.rec.bitsMode += int64(b1 - b0)
		e.emitResidual(d.levels, size, e.tools.Transform)
		e.rec.bitsResidual += int64(e.bw.bitLen() - b1)
		return
	}
	e.emitResidual(d.levels, size, e.tools.Transform)
}

func (e *encoder) modeIndex(m intra.Mode) int {
	for i, mm := range e.prof.Modes {
		if mm == m {
			return i
		}
	}
	panic(fmt.Sprintf("codec: mode %d not in profile", m))
}

// modeIdxBits is the fixed bypass width for a mode index.
func modeIdxBits(n int) uint {
	b := uint(0)
	for 1<<b < n {
		b++
	}
	return b
}

func (e *encoder) emitResidual(lev []int32, size int, transformed bool) {
	si := sizeIdx(size)
	scan := scanOrder(size)
	if !transformed {
		scan = rasterOrder(size)
	}
	cbf := 0
	for _, l := range lev {
		if l != 0 {
			cbf = 1
			break
		}
	}
	e.bw.bit(&e.ctx.cbf[si], cbf)
	if cbf == 0 {
		return
	}
	k := uint(0)
	for _, pos := range scan {
		l := lev[pos]
		sig := 0
		if l != 0 {
			sig = 1
		}
		e.bw.bit(&e.ctx.sig[si][diagBin(pos, size)], sig)
		if sig == 0 {
			continue
		}
		a := l
		if a < 0 {
			a = -a
		}
		g1 := 0
		if a > 1 {
			g1 = 1
		}
		e.bw.bit(&e.ctx.g1[si], g1)
		if g1 == 1 {
			g2 := 0
			if a > 2 {
				g2 = 1
			}
			e.bw.bit(&e.ctx.g2[si], g2)
			if g2 == 1 {
				rem := uint32(a - 3)
				egEncode(e.bw, rem, k)
				if rem > 3<<k && k < 4 {
					k++
				}
			}
		}
		sign := 0
		if l < 0 {
			sign = 1
		}
		e.bw.bypass(sign)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
