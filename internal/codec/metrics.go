// Observability instrumentation of the codec layer (DESIGN.md §10).
//
// Encoder and Decoder take an *obs.Registry in their Metrics field; nil
// records nothing. The instrumentation contract:
//
//   - Zero cost when disabled. A nil registry resolves to nil metric
//     handles, and every record site is guarded by a single nil check —
//     no clock reads, no allocations, no atomics (proved by
//     BenchmarkEncodeDisabledMetrics against the uninstrumented baseline).
//   - Race-clean when enabled. Per-chunk stage times and bit accounts are
//     accumulated in a plain stageRecorder owned by the one goroutine
//     encoding that chunk, then flushed into the shared atomic registry
//     handles at chunk end; the worker pools additionally report busy/wall
//     time through atomic counters only.
//
// Metric taxonomy (all durations in nanoseconds):
//
//	codec.encode.calls / planes / pixels / chunks / bytes     counters
//	codec.encode.bits.{container,partition,mode,residual}     counters
//	codec.encode.stage.{partition,intra_search,
//	                    transform_quant,entropy,container}_ns histograms (per chunk/call)
//	codec.encode.chunk_ns                                     histogram  (per-chunk makespan)
//	codec.encode.pool.{busy_ns,wall_ns}                       counters
//	codec.encode.pool.workers                                 histogram  (pool size per call)
//	codec.decode.calls / planes / chunks                      counters
//	codec.decode.errors.{corrupt,truncated,checksum}          counters
//	codec.decode.partial.{chunks_lost,planes_lost}            counters
//	codec.decode.stage.parse_ns                               histogram  (container parse)
//	codec.decode.chunk_ns                                     histogram  (per-chunk decode)
//	codec.decode.pool.{busy_ns,wall_ns}                       counters
//	codec.decode.pool.workers                                 histogram
//
// pool.wall_ns is wall-clock × pool size (total worker-seconds of
// capacity), so utilization = pool.busy_ns / pool.wall_ns directly. Bit
// attribution under CABAC is byte-granular per site but telescopes exactly
// in aggregate (see binEncoder.bitLen).
package codec

import (
	"context"
	"errors"
	"runtime/pprof"
	"strconv"

	"repro/internal/obs"
)

// encMetrics holds the pre-resolved encode-side metric handles so hot paths
// never touch the registry's name map. A nil *encMetrics disables
// everything.
type encMetrics struct {
	calls, planes, pixels, chunks, bytes             *obs.Counter
	bitsContainer, bitsPartition, bitsMode, bitsResi *obs.Counter
	stagePartition, stageIntra, stageXform           *obs.Histogram
	stageEntropy, stageContainer                     *obs.Histogram
	chunkNs                                          *obs.Histogram
	pool                                             poolMetrics
}

// poolMetrics are one chunk pool's handles: the pool size per call and the
// busy and wall worker-time counters (utilization = busy/wall).
type poolMetrics struct {
	workers    *obs.Histogram
	busy, wall *obs.Counter
}

func newPoolMetrics(reg *obs.Registry, prefix string) poolMetrics {
	return poolMetrics{
		workers: reg.Histogram(prefix + ".workers"),
		busy:    reg.Counter(prefix + ".busy_ns"),
		wall:    reg.Counter(prefix + ".wall_ns"),
	}
}

func newEncMetrics(reg *obs.Registry) *encMetrics {
	if reg == nil {
		return nil
	}
	return &encMetrics{
		calls:          reg.Counter("codec.encode.calls"),
		planes:         reg.Counter("codec.encode.planes"),
		pixels:         reg.Counter("codec.encode.pixels"),
		chunks:         reg.Counter("codec.encode.chunks"),
		bytes:          reg.Counter("codec.encode.bytes"),
		bitsContainer:  reg.Counter("codec.encode.bits.container"),
		bitsPartition:  reg.Counter("codec.encode.bits.partition"),
		bitsMode:       reg.Counter("codec.encode.bits.mode"),
		bitsResi:       reg.Counter("codec.encode.bits.residual"),
		stagePartition: reg.Histogram("codec.encode.stage.partition_ns"),
		stageIntra:     reg.Histogram("codec.encode.stage.intra_search_ns"),
		stageXform:     reg.Histogram("codec.encode.stage.transform_quant_ns"),
		stageEntropy:   reg.Histogram("codec.encode.stage.entropy_ns"),
		stageContainer: reg.Histogram("codec.encode.stage.container_ns"),
		chunkNs:        reg.Histogram("codec.encode.chunk_ns"),
		pool:           newPoolMetrics(reg, "codec.encode.pool"),
	}
}

// stageRecorder accumulates one chunk's stage times and bit accounts with
// plain (non-atomic) arithmetic; the chunk is encoded by exactly one
// goroutine, and flush() publishes the totals through the atomic handles.
type stageRecorder struct {
	m *encMetrics

	decideNs, intraNs, xformNs, entropyNs int64
	bitsPartition, bitsMode, bitsResidual int64
}

// flush publishes the accumulated chunk stats. The pure partition-search
// share is the RD-decide total minus the leaf-internal intra-search and
// transform+quant shares measured inside it.
func (r *stageRecorder) flush() {
	partition := r.decideNs - r.intraNs - r.xformNs
	if partition < 0 {
		partition = 0
	}
	r.m.stagePartition.Observe(partition)
	r.m.stageIntra.Observe(r.intraNs)
	r.m.stageXform.Observe(r.xformNs)
	r.m.stageEntropy.Observe(r.entropyNs)
	r.m.bitsPartition.Add(r.bitsPartition)
	r.m.bitsMode.Add(r.bitsMode)
	r.m.bitsResi.Add(r.bitsResidual)
}

// recordEncodeTotals publishes the call-level rollup shared by all encode
// entry points: geometry counters plus the container-framing bit account
// (total container bits minus the entropy payload bits, i.e. headers,
// dim/chunk tables and CRCs).
func (m *encMetrics) recordEncodeTotals(st Stats, containerLen, payloadLen, nPlanes int) {
	if m == nil {
		return
	}
	m.calls.Inc()
	m.planes.Add(int64(nPlanes))
	m.pixels.Add(int64(st.Pixels))
	m.chunks.Add(int64(st.Chunks))
	m.bytes.Add(int64(containerLen))
	m.bitsContainer.Add(int64(containerLen-payloadLen) * 8)
}

// decMetrics is the decode-side twin of encMetrics.
type decMetrics struct {
	calls, planes, chunks                 *obs.Counter
	errCorrupt, errTruncated, errChecksum *obs.Counter
	errCanceled                           *obs.Counter
	partialChunksLost, partialPlanesLost  *obs.Counter
	stageParse, chunkNs                   *obs.Histogram
	pool                                  poolMetrics
}

func newDecMetrics(reg *obs.Registry) *decMetrics {
	if reg == nil {
		return nil
	}
	return &decMetrics{
		calls:             reg.Counter("codec.decode.calls"),
		planes:            reg.Counter("codec.decode.planes"),
		chunks:            reg.Counter("codec.decode.chunks"),
		errCorrupt:        reg.Counter("codec.decode.errors.corrupt"),
		errTruncated:      reg.Counter("codec.decode.errors.truncated"),
		errChecksum:       reg.Counter("codec.decode.errors.checksum"),
		errCanceled:       reg.Counter("codec.decode.errors.canceled"),
		partialChunksLost: reg.Counter("codec.decode.partial.chunks_lost"),
		partialPlanesLost: reg.Counter("codec.decode.partial.planes_lost"),
		stageParse:        reg.Histogram("codec.decode.stage.parse_ns"),
		chunkNs:           reg.Histogram("codec.decode.chunk_ns"),
		pool:              newPoolMetrics(reg, "codec.decode.pool"),
	}
}

// countPlanes counts the planes a successful decode returned.
func (m *decMetrics) countPlanes(n int) {
	if m != nil {
		m.planes.Add(int64(n))
	}
}

// countError bumps the taxonomy counter matching err's class. Unclassified
// errors (impossible by the decode contract, but counted defensively) land
// on the corrupt counter.
func (m *decMetrics) countError(err error) {
	if m == nil || err == nil {
		return
	}
	switch {
	case IsCancellation(err):
		// Cancellation is the caller's doing, not a property of the bytes —
		// counted on its own so dashboards can tell hostile input from
		// impatient clients.
		m.errCanceled.Inc()
	case errors.Is(err, ErrChecksum):
		m.errChecksum.Inc()
	case errors.Is(err, ErrTruncated):
		m.errTruncated.Inc()
	default:
		m.errCorrupt.Inc()
	}
}

// workerLabels runs f with pprof goroutine labels identifying the engine
// pool and worker index, so CPU and goroutine profiles attribute samples to
// individual codec workers (`llm265_pool=encode llm265_worker=3`).
func workerLabels(pool string, worker int, f func()) {
	pprof.Do(context.Background(), pprof.Labels(
		"llm265_pool", pool,
		"llm265_worker", strconv.Itoa(worker),
	), func(context.Context) { f() })
}
