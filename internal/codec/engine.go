// Parallel multi-plane encode/decode engine and container framing.
//
// The codec is intra-only in its shipping configuration (§3.2), so every
// plane of a tensor stack is an independent slice: it shares no prediction
// state, no entropy contexts and no reconstruction with its neighbours. The
// engine exploits that by fanning plane groups ("chunks") out over a worker
// pool — mirroring the multiple NVENC/NVDEC engines that give the hardware
// its ~1100/1300 MB/s throughput — and stitching the per-chunk substreams
// into a length-prefixed chunked container.
//
// Determinism: the chunk partition is a pure function of the plane list and
// the tool set, every chunk is encoded by a self-contained encoder, and the
// substreams are stitched in chunk order. Output bytes therefore do not
// depend on the worker count or on goroutine scheduling: an Encoder with
// Workers 1 and one with Workers N emit the same bytes, for every Container.
//
// Version-2 container layout (all integers big-endian):
//
//	"L265" | version=2 | profile | tools | qp        (8 bytes, as v1)
//	uint32 nPlanes | nPlanes × (uint32 w, uint32 h)  (as v1)
//	uint32 nChunks
//	nChunks × (uint32 planeCount, uint32 payloadLen)
//	payloads, concatenated in chunk order
//
// Version-3 ("hardened") container layout — v2 plus integrity:
//
//	"L265" | version=3 | profile | tools | qp
//	uint32 nPlanes | nPlanes × (uint32 w, uint32 h)
//	uint32 nChunks
//	nChunks × (uint32 planeCount, uint32 payloadLen, uint32 payloadCRC32C)
//	uint32 headerCRC32C   — CRC32C over every preceding byte
//	payloads, concatenated in chunk order
//
// The header CRC covers the preamble, dim table and chunk table, so a
// decoder never acts on damaged geometry; each payload CRC is verified
// before the substream is parsed, so bit-rot inside a chunk surfaces as
// ErrChecksum (and, under Decoder.DecodePartial, damages only that chunk's
// planes).
// CRC32C (Castagnoli) is used for its hardware support on both x86 and arm.
//
// Each payload is a self-delimiting substream identical in format to a
// version-1 payload: fresh entropy contexts, fresh mode predictor, frame
// indices local to the chunk.
package codec

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"runtime"
	"sync"
	"time"

	"repro/internal/frame"
)

// versionChunked is the bitstream version of the chunked multi-substream
// container produced by ContainerAuto.
const versionChunked = 2

// versionChecksummed is the bitstream version of the hardened container
// produced by ContainerChecksummed: chunked framing plus CRC32C integrity on
// the header and on every chunk payload.
const versionChecksummed = 3

// crcTable is the CRC32C (Castagnoli) table used by the v3 container.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// normalizeWorkers resolves a requested worker count: values <= 0 select
// runtime.GOMAXPROCS(0).
func normalizeWorkers(w int) int {
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w < 1 {
		w = 1
	}
	return w
}

// minChunkPixels is the chunk granularity floor: consecutive planes are
// grouped into one chunk until it holds at least this many source pixels.
// Per-chunk cost is real — a fresh CABAC context set must re-adapt, and the
// chunk table spends 8 (v2) or 12 (v3) bytes per entry — so tiny planes are
// batched to keep the chunked container's rate within noise of the serial
// single-substream one, while large planes (192×192 and up) still get a
// chunk (and therefore a worker) each.
const minChunkPixels = 1 << 15

// chunkSpans partitions planes into contiguous [start, end) chunks that are
// independently codable. Intra-only tool sets are split greedily: a chunk
// closes once it has accumulated minChunkPixels source pixels, so big planes
// parallelize one-per-worker and small planes batch together. When inter
// prediction is enabled, frames reference their predecessors, so all planes
// must stay in a single chunk. The partition depends only on the plane
// geometry and the tool set — never on the worker count — which is what
// makes the container bytes deterministic.
func chunkSpans(planes []*frame.Plane, tools Tools) [][2]int {
	n := len(planes)
	if tools.InterPred {
		return [][2]int{{0, n}}
	}
	var spans [][2]int
	start, acc := 0, 0
	for i, p := range planes {
		acc += p.W * p.H
		if acc >= minChunkPixels {
			spans = append(spans, [2]int{start, i + 1})
			start, acc = i+1, 0
		}
	}
	if start < n {
		spans = append(spans, [2]int{start, n})
	}
	return spans
}

// encodeChunksParallel encodes each span as an independent substream on
// the chunk pool, returning per-chunk payloads and per-chunk
// reconstructions in span order. With metrics enabled it also records each
// chunk's makespan.
//
// Cancellation: a canceled call skips its queued chunks and encodeChunk
// aborts mid-chunk at CTU granularity; the first cancellation or chunk
// error is returned after the pool drains, with no partial output.
func encodeChunksParallel(ctx context.Context, planes []*frame.Plane, spans [][2]int, qp int, prof Profile, tools Tools, workers int, m *encMetrics) ([][]byte, []*ransRecord, [][]*frame.Plane, error) {
	payloads := make([][]byte, len(spans))
	records := make([]*ransRecord, len(spans))
	recs := make([][]*frame.Plane, len(spans))
	errs := make([]error, len(spans))
	var pm *poolMetrics
	if m != nil {
		pm = &m.pool
	}
	runPool("encode", len(spans), workers, pm, func(i int, scr *scratch) {
		if errs[i] = ctxErr(ctx); errs[i] != nil {
			return // canceled before the chunk started; skip the encode
		}
		s := spans[i]
		if m != nil {
			t0 := time.Now()
			payloads[i], records[i], recs[i], errs[i] = encodeChunk(ctx, planes[s[0]:s[1]], qp, prof, tools, m, scr)
			m.chunkNs.ObserveSince(t0)
			return
		}
		payloads[i], records[i], recs[i], errs[i] = encodeChunk(ctx, planes[s[0]:s[1]], qp, prof, tools, nil, scr)
	})
	return payloads, records, recs, firstErr(errs)
}

// runPool runs job(i, scr) for every chunk i in [0, n) on
// min(workers, n) goroutines (workers <= 0 selects GOMAXPROCS), handing
// chunks out in order. Each worker checks out one scratch arena for its
// whole job run, so per-chunk codec state is reused instead of
// reallocated; a one-worker pool runs on the calling goroutine through the
// same job function. With metrics enabled (pm != nil) it records the pool
// size and busy/wall worker-time (utilization = busy/wall), and tags each
// worker goroutine with pprof labels llm265_pool=label, llm265_worker=w.
func runPool(label string, n, workers int, pm *poolMetrics, job func(i int, scr *scratch)) {
	workers = normalizeWorkers(workers)
	if workers > n {
		workers = n
	}
	var wallStart time.Time
	if pm != nil {
		wallStart = time.Now()
		pm.workers.Observe(int64(workers))
	}
	if workers == 1 {
		scr := getScratch()
		for i := 0; i < n; i++ {
			job(i, scr)
		}
		putScratch(scr)
		if pm != nil {
			wall := int64(time.Since(wallStart))
			pm.busy.Add(wall)
			pm.wall.Add(wall)
		}
		return
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			work := func() {
				scr := getScratch()
				var busy int64
				for i := range jobs {
					t0 := time.Now()
					job(i, scr)
					busy += int64(time.Since(t0))
				}
				putScratch(scr)
				if pm != nil {
					pm.busy.Add(busy)
				}
			}
			if pm != nil {
				workerLabels(label, w, work)
			} else {
				work()
			}
		}(w)
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	if pm != nil {
		pm.wall.Add(int64(time.Since(wallStart)) * int64(workers))
	}
}

// firstErr returns the first non-nil error of a per-chunk error slice.
func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// writeCommonHeader emits the preamble and dim table shared by all container
// versions. When tools selects a non-CABAC backend (its tools byte carries
// toolsBackendExt), the backend extension — backend id, slot count and the
// shared rANS probability table — is emitted immediately after the qp byte;
// ransTab must be non-nil exactly then. CABAC headers are byte-identical to
// the historical layout.
func writeCommonHeader(head *bytes.Buffer, version byte, planes []*frame.Plane, qp int, prof Profile, tools Tools, ransTab *[nCtxSlots]uint8) {
	dims := make([][2]int, len(planes))
	for i, p := range planes {
		dims[i] = [2]int{p.W, p.H}
	}
	writeHeaderDims(head, version, dims, qp, prof, tools, ransTab)
}

// writeHeaderDims is writeCommonHeader on bare dimensions — the shape the
// incremental Appender has when it re-frames already-encoded chunks into a
// snapshot container without holding the source planes.
func writeHeaderDims(head *bytes.Buffer, version byte, dims [][2]int, qp int, prof Profile, tools Tools, ransTab *[nCtxSlots]uint8) {
	head.Write(magic[:])
	head.WriteByte(version)
	head.WriteByte(prof.id())
	head.WriteByte(tools.bits())
	head.WriteByte(uint8(qp))
	if tools.Backend != BackendCABAC {
		head.WriteByte(byte(tools.Backend))
		head.WriteByte(nCtxSlots)
		head.Write(ransTab[:])
	}
	binary.Write(head, binary.BigEndian, uint32(len(dims)))
	for _, d := range dims {
		binary.Write(head, binary.BigEndian, uint32(d[0]))
		binary.Write(head, binary.BigEndian, uint32(d[1]))
	}
}

// encodeAuto emits ContainerAuto: the version-1 container when the planes
// form one chunk (byte-identical to encodeSerial), the chunked version-2
// container otherwise, and version 3 for rANS.
func encodeAuto(ctx context.Context, planes []*frame.Plane, qp int, prof Profile, tools Tools, workers int, m *encMetrics) ([]byte, Stats, error) {
	if err := validateEncode(planes, qp, prof, tools); err != nil {
		return nil, Stats{}, err
	}
	if tools.Backend != BackendCABAC {
		// rANS streams need the v3 header's backend extension (shared
		// probability table); route them to the hardened container.
		return encodeV3(ctx, planes, qp, prof, tools, workers, m, false, nil)
	}
	spans := chunkSpans(planes, tools)
	if len(spans) == 1 {
		// A single chunk has no parallelism to exploit; emit the version-1
		// container, which is byte-identical to the serial encode path (one
		// shared-context substream, 4-byte length prefix instead of a chunk
		// table). This keeps small workloads bit-compatible with historical
		// streams and free of chunking overhead.
		return encodeSerial(ctx, planes, qp, prof, tools, m)
	}
	payloads, _, recs, err := encodeChunksParallel(ctx, planes, spans, qp, prof, tools, workers, m)
	if err != nil {
		return nil, Stats{}, err
	}

	var tContainer time.Time
	if m != nil {
		tContainer = time.Now()
	}
	var head bytes.Buffer
	writeCommonHeader(&head, versionChunked, planes, qp, prof, tools, nil)
	binary.Write(&head, binary.BigEndian, uint32(len(spans)))
	total := head.Len()
	payloadLen := 0
	for i, s := range spans {
		binary.Write(&head, binary.BigEndian, uint32(s[1]-s[0]))
		binary.Write(&head, binary.BigEndian, uint32(len(payloads[i])))
		total += 8 + len(payloads[i])
		payloadLen += len(payloads[i])
	}
	out := make([]byte, 0, total)
	out = append(out, head.Bytes()...)
	for _, p := range payloads {
		out = append(out, p...)
	}

	st := statsFromChunks(planes, recs, len(out)*8, len(spans))
	if m != nil {
		m.stageContainer.ObserveSince(tContainer)
		m.recordEncodeTotals(st, len(out), payloadLen, len(planes))
	}
	return out, st, nil
}

// encodeV3 emits the hardened version-3 container, extended with the
// chunk-index trailer when indexed is set. regions is either nil (the index
// carries offsets and CRCs only) or one rect per plane.
func encodeV3(ctx context.Context, planes []*frame.Plane, qp int, prof Profile, tools Tools, workers int, m *encMetrics, indexed bool, regions []PlaneRegion) ([]byte, Stats, error) {
	if err := validateEncode(planes, qp, prof, tools); err != nil {
		return nil, Stats{}, err
	}
	if regions != nil && len(regions) != len(planes) {
		return nil, Stats{}, fmt.Errorf("codec: %d index regions for %d planes", len(regions), len(planes))
	}
	spans := chunkSpans(planes, tools)
	payloads, records, recs, err := encodeChunksParallel(ctx, planes, spans, qp, prof, tools, workers, m)
	if err != nil {
		return nil, Stats{}, err
	}

	var tContainer time.Time
	if m != nil {
		tContainer = time.Now()
	}
	var ransTab *[nCtxSlots]uint8
	if tools.Backend == BackendRANS {
		// Pass 2 of the rANS scheme: aggregate every chunk's bin statistics
		// into the shared probability table, then assemble each chunk's
		// payload against it. Both steps are pure functions of the records
		// (which arrive in span order), so container bytes stay independent
		// of the worker count.
		tab := buildRansTable(records)
		ransTab = &tab
		for i, r := range records {
			payloads[i] = r.assemble(ransTab)
		}
	}
	var head bytes.Buffer
	writeCommonHeader(&head, versionChecksummed, planes, qp, prof, tools, ransTab)
	binary.Write(&head, binary.BigEndian, uint32(len(spans)))
	total := head.Len() + 4 // + trailing header CRC
	payloadLen := 0
	payloadCRCs := make([]uint32, len(spans))
	for i, s := range spans {
		payloadCRCs[i] = crc32.Checksum(payloads[i], crcTable)
		binary.Write(&head, binary.BigEndian, uint32(s[1]-s[0]))
		binary.Write(&head, binary.BigEndian, uint32(len(payloads[i])))
		binary.Write(&head, binary.BigEndian, payloadCRCs[i])
		total += 12 + len(payloads[i])
		payloadLen += len(payloads[i])
	}
	binary.Write(&head, binary.BigEndian, crc32.Checksum(head.Bytes(), crcTable))
	var trailer []byte
	if indexed {
		// The index restates the chunk table with absolute offsets (plus the
		// caller's region rects), so a reader can locate any chunk without
		// walking the payloads — and a store can address them individually.
		entries := make([]IndexEntry, len(spans))
		off := int64(head.Len())
		for i, s := range spans {
			entries[i] = IndexEntry{
				Offset:     off,
				Length:     len(payloads[i]),
				CRC:        payloadCRCs[i],
				PlaneBase:  s[0],
				PlaneCount: s[1] - s[0],
			}
			off += int64(len(payloads[i]))
		}
		trailer = buildTrailer(entries, regions)
		total += len(trailer)
	}
	out := make([]byte, 0, total)
	out = append(out, head.Bytes()...)
	for _, p := range payloads {
		out = append(out, p...)
	}
	out = append(out, trailer...)

	st := statsFromChunks(planes, recs, len(out)*8, len(spans))
	if m != nil {
		m.stageContainer.ObserveSince(tContainer)
		m.recordEncodeTotals(st, len(out), payloadLen, len(planes))
	}
	return out, st, nil
}

// statsFromChunks flattens per-chunk reconstructions and computes Stats.
func statsFromChunks(planes []*frame.Plane, recs [][]*frame.Plane, bits, chunks int) Stats {
	allRecs := make([]*frame.Plane, 0, len(planes))
	for _, r := range recs {
		allRecs = append(allRecs, r...)
	}
	st := computeStats(planes, allRecs, bits)
	st.Chunks = chunks
	return st
}

// ---------------------------------------------------------------- parsing

// chunkMeta is one entry of a parsed container's chunk layout. When err is
// non-nil the chunk is unusable before any entropy decoding happens
// (payload out of range, or a v3 CRC mismatch).
type chunkMeta struct {
	payload   []byte
	dims      [][2]int
	planeBase int
	err       error
}

// parsedContainer is the validated frame of any container version: geometry
// plus the per-chunk payload windows. All bounds are checked against the
// actual data length before any payload-sized state is allocated.
type parsedContainer struct {
	version byte
	prof    Profile
	tools   Tools
	qp      int
	dims    [][2]int
	chunks  []chunkMeta

	// ransTab is the shared rANS probability table from the header's backend
	// extension; non-nil exactly when tools.Backend == BackendRANS.
	ransTab *[nCtxSlots]uint8

	// payloadBase is the offset of the first payload byte (the header length);
	// trailerOff is the offset one past the last payload, where the optional
	// v3 trailer starts — len(data) when there is no trailer. index is the
	// trailer's chunk index, nil when absent (or damaged, in lenient mode).
	payloadBase int
	trailerOff  int
	index       *ChunkIndex
}

// parseContainer validates a container of any version down to its chunk
// layout. In strict mode (lenient=false) the first defect — truncation, CRC
// mismatch, impossible counts — aborts with an error. In lenient mode,
// defects confined to a single chunk (payload runs past the end of data, or
// a payload CRC mismatch) are recorded on that chunk's meta.err so
// Decoder.DecodePartial can still recover the others; defects in the shared
// header or chunk table still abort, because no geometry can be trusted
// after them.
func parseContainer(data []byte, lenient bool) (*parsedContainer, error) {
	if err := checkPreamble(data); err != nil {
		return nil, err
	}
	version := data[4]
	switch version {
	case 1, versionChunked, versionChecksummed:
	default:
		return nil, corruptf("codec: unsupported version %d", version)
	}
	prof, tools, qp, dims, ransTab, off, err := parseCommonHeader(data)
	if err != nil {
		return nil, err
	}
	if ransTab != nil && version != versionChecksummed {
		// The backend extension is defined only for the hardened container:
		// the encoder never emits a v1/v2 rANS stream, so one on the wire is
		// damaged (e.g. a flipped version byte) and its geometry untrustworthy.
		return nil, corruptf("codec: entropy-backend extension in version %d container", version)
	}
	pc := &parsedContainer{version: version, prof: prof, tools: tools, qp: qp, dims: dims, ransTab: ransTab}

	if version == 1 {
		if len(data) < off+4 {
			return nil, truncatedf("codec: v1 header ends before payload length")
		}
		payLen := int(binary.BigEndian.Uint32(data[off:]))
		off += 4
		pc.payloadBase = off
		pc.trailerOff = len(data)
		meta := chunkMeta{dims: dims, planeBase: 0}
		switch {
		case payLen < 0:
			return nil, corruptf("codec: negative payload length")
		case off+payLen > len(data):
			meta.err = truncatedf("codec: payload needs %d bytes, %d remain", payLen, len(data)-off)
			if !lenient {
				return nil, meta.err
			}
		case !lenient && off+payLen != len(data):
			// Exact-length rule (strict mode): the encoder never emits
			// trailing bytes, so a container longer than it declares is
			// damaged framing. This is also what defeats the version-byte
			// downgrade: a bit flip turning a v3 container into "v1" leaves
			// the CRC fields and payloads dangling past the declared end.
			return nil, corruptf("codec: %d trailing bytes after declared payload", len(data)-off-payLen)
		default:
			meta.payload = data[off : off+payLen]
		}
		pc.chunks = []chunkMeta{meta}
		return pc, nil
	}

	if len(data) < off+4 {
		return nil, truncatedf("codec: header ends before chunk count")
	}
	nChunks := int(binary.BigEndian.Uint32(data[off:]))
	off += 4
	if nChunks <= 0 || nChunks > len(dims) {
		return nil, corruptf("codec: chunk count %d out of range for %d planes", nChunks, len(dims))
	}
	entry := 8
	if version == versionChecksummed {
		entry = 12
	}
	if len(data) < off+entry*nChunks {
		return nil, truncatedf("codec: header ends inside %d-entry chunk table", nChunks)
	}
	counts := make([]int, nChunks)
	sizes := make([]int, nChunks)
	crcs := make([]uint32, nChunks)
	totalPlanes := 0
	for i := 0; i < nChunks; i++ {
		counts[i] = int(binary.BigEndian.Uint32(data[off:]))
		sizes[i] = int(binary.BigEndian.Uint32(data[off+4:]))
		if version == versionChecksummed {
			crcs[i] = binary.BigEndian.Uint32(data[off+8:])
		}
		off += entry
		if counts[i] <= 0 || sizes[i] < 0 {
			return nil, corruptf("codec: chunk %d declares %d planes, %d bytes", i, counts[i], sizes[i])
		}
		totalPlanes += counts[i]
		if totalPlanes > len(dims) {
			return nil, corruptf("codec: chunk table covers %d planes, container has %d", totalPlanes, len(dims))
		}
	}
	if totalPlanes != len(dims) {
		return nil, corruptf("codec: chunk table covers %d planes, container has %d", totalPlanes, len(dims))
	}
	if version == versionChecksummed {
		// The header CRC covers everything before itself: preamble, dim
		// table and chunk table. Verified before any payload is touched so
		// damaged geometry is never acted on.
		if len(data) < off+4 {
			return nil, truncatedf("codec: header ends before header CRC")
		}
		want := binary.BigEndian.Uint32(data[off:])
		if got := crc32.Checksum(data[:off], crcTable); got != want {
			return nil, fmt.Errorf("codec: header CRC %08x != %08x: %w", got, want, ErrChecksum)
		}
		off += 4
	}

	pc.payloadBase = off
	pc.chunks = make([]chunkMeta, nChunks)
	base := 0
	for i := 0; i < nChunks; i++ {
		meta := chunkMeta{dims: dims[base : base+counts[i]], planeBase: base}
		if off+sizes[i] > len(data) {
			meta.err = truncatedf("codec: chunk %d needs %d bytes, %d remain", i, sizes[i], len(data)-off)
			if !lenient {
				return nil, meta.err
			}
			// Later chunk offsets are still well-defined (lengths are in the
			// verified table), but they are all past the end too; keep
			// walking so every chunk gets a truncation record.
		} else {
			payload := data[off : off+sizes[i]]
			if version == versionChecksummed {
				if got := crc32.Checksum(payload, crcTable); got != crcs[i] {
					meta.err = fmt.Errorf("codec: chunk %d CRC %08x != %08x: %w", i, got, crcs[i], ErrChecksum)
					if !lenient {
						return nil, meta.err
					}
				} else {
					meta.payload = payload
				}
			} else {
				meta.payload = payload
			}
		}
		pc.chunks[i] = meta
		off += sizes[i]
		base += counts[i]
	}
	pc.trailerOff = off
	if pc.trailerOff > len(data) {
		pc.trailerOff = len(data) // lenient truncation: payloads ran past the end
	}
	if off < len(data) {
		if version != versionChecksummed {
			// Exact-length rule, mirroring v1: the v2 encoder emits nothing
			// after the last payload, so trailing bytes mean damaged framing —
			// e.g. a version byte flipped 3→2 leaves the v3 CRC fields
			// misparsed into the chunk table and payload bytes dangling. Only
			// the v3 container defines a trailer (DESIGN.md §15).
			if !lenient {
				return nil, corruptf("codec: %d trailing bytes after container end", len(data)-off)
			}
			return pc, nil
		}
		idx, _, err := parseTrailer(data, off)
		if err == nil {
			err = validateIndex(idx, pc, pc.payloadBase, sizes, crcs, counts)
		}
		if err != nil {
			// Lenient parses treat a damaged trailer as absent: the index is
			// only an accelerator, and every chunk is still recoverable from
			// the CRC-verified header table.
			if !lenient {
				return nil, err
			}
			return pc, nil
		}
		pc.index = idx
	}
	return pc, nil
}

// decodeChunks decodes every usable chunk of a parsed container on the
// chunk pool. Failed chunks leave nil planes and produce a ChunkError;
// recovered planes land at their container positions. With metrics enabled
// it records per-chunk decode times. A canceled call skips its queued
// chunks and in-flight chunks abort at CTU granularity; callers must check
// ctx after the pool drains (a canceled call's error is ctx.Err(), not a
// ChunkError).
func decodeChunks(ctx context.Context, pc *parsedContainer, workers int, m *decMetrics) ([]*frame.Plane, []ChunkError) {
	planes := make([]*frame.Plane, len(pc.dims))
	errs := make([]error, len(pc.chunks))
	// Intra-chunk lane parallelism (rANS backend only): when the pool has
	// more workers than chunks, the surplus goes to parallel rANS state
	// decoding inside each chunk — the whole point of the interleaved
	// backend. The pool clamps its size to the chunk count, which is
	// exactly what discards the surplus. Output is identical either way.
	laneParallel := pc.tools.Backend == BackendRANS && normalizeWorkers(workers) > len(pc.chunks)
	var pm *poolMetrics
	if m != nil {
		pm = &m.pool
	}
	runPool("decode", len(pc.chunks), workers, pm, func(i int, scr *scratch) {
		if errs[i] = ctxErr(ctx); errs[i] != nil {
			return // canceled before the chunk started; skip the decode
		}
		var t0 time.Time
		if m != nil {
			t0 = time.Now()
		}
		c := &pc.chunks[i]
		if c.err != nil {
			errs[i] = c.err
			return
		}
		ps, err := decodeChunkPayload(ctx, c.payload, c.dims, pc.prof, pc.tools, pc.qp, pc.ransTab, laneParallel, scr)
		if m != nil {
			m.chunkNs.ObserveSince(t0)
			m.chunks.Inc()
		}
		if err != nil {
			errs[i] = err
			return
		}
		copy(planes[c.planeBase:], ps)
	})

	var chunkErrs []ChunkError
	for i, err := range errs {
		if err != nil {
			chunkErrs = append(chunkErrs, ChunkError{
				Chunk:      i,
				PlaneStart: pc.chunks[i].planeBase,
				PlaneCount: len(pc.chunks[i].dims),
				Err:        err,
			})
		}
	}
	return planes, chunkErrs
}

// decodeV1 parses the legacy single-substream container: the fast path for
// version-1 data, decoded serially on the calling goroutine.
func decodeV1(ctx context.Context, data []byte, m *decMetrics) ([]*frame.Plane, error) {
	pc, err := parseContainerObs(data, false, m)
	if err != nil {
		return nil, err
	}
	var t0 time.Time
	if m != nil {
		t0 = time.Now()
	}
	s := getScratch()
	planes, err := decodeChunkPayload(ctx, pc.chunks[0].payload, pc.dims, pc.prof, pc.tools, pc.qp, nil, false, s)
	putScratch(s)
	if m != nil {
		m.chunkNs.ObserveSince(t0)
		m.chunks.Inc()
	}
	return planes, err
}

// decodeChunked parses a version-2 or version-3 container and decodes its
// substreams concurrently on a pool of `workers` goroutines, failing on the
// first defective chunk.
func decodeChunked(ctx context.Context, data []byte, workers int, m *decMetrics) ([]*frame.Plane, error) {
	pc, err := parseContainerObs(data, false, m)
	if err != nil {
		return nil, err
	}
	planes, chunkErrs := decodeChunks(ctx, pc, workers, m)
	// Cancellation wins over chunk errors: a canceled call reports ctx.Err()
	// bare, keeping ChunkError reserved for the bytes-driven taxonomy.
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	if len(chunkErrs) > 0 {
		return nil, chunkErrs[0]
	}
	return planes, nil
}

// parseContainerObs is parseContainer with the container-parse stage timed.
func parseContainerObs(data []byte, lenient bool, m *decMetrics) (*parsedContainer, error) {
	if m == nil {
		return parseContainer(data, lenient)
	}
	t0 := time.Now()
	pc, err := parseContainer(data, lenient)
	m.stageParse.ObserveSince(t0)
	return pc, err
}

// decodeDispatch routes a container of any version to its decoder for
// Decoder.Decode.
func decodeDispatch(ctx context.Context, data []byte, workers int, m *decMetrics) ([]*frame.Plane, error) {
	if err := checkPreamble(data); err != nil {
		return nil, err
	}
	if m != nil {
		m.calls.Inc()
	}
	switch data[4] {
	case 1:
		return decodeV1(ctx, data, m)
	case versionChunked, versionChecksummed:
		return decodeChunked(ctx, data, workers, m)
	default:
		return nil, corruptf("codec: unsupported version %d", data[4])
	}
}
