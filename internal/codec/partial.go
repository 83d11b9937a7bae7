package codec

import (
	"context"
	"fmt"

	"repro/internal/frame"
)

// ChunkError reports one chunk that failed to decode: which chunk, which
// plane range it covered, and why. Err matches ErrCorrupt, ErrTruncated or
// ErrChecksum under errors.Is.
type ChunkError struct {
	Chunk      int // chunk index in container order
	PlaneStart int // index of the chunk's first plane
	PlaneCount int // number of planes the chunk covered
	Err        error
}

// Error implements error.
func (e ChunkError) Error() string {
	return fmt.Sprintf("chunk %d (planes %d..%d): %v",
		e.Chunk, e.PlaneStart, e.PlaneStart+e.PlaneCount-1, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e ChunkError) Unwrap() error { return e.Err }

// PartialResult is the outcome of a best-effort decode: every plane whose
// chunk verified and parsed, nil placeholders for the rest, and a per-chunk
// error report.
type PartialResult struct {
	// Planes has one entry per container plane, in container order. Entries
	// covered by a failed chunk are nil.
	Planes []*frame.Plane
	// Chunks is the total chunk count of the container (1 for version 1).
	Chunks int
	// Errors lists every failed chunk in container order. Empty means the
	// stream decoded completely.
	Errors []ChunkError
	// Index is the stream's trailer chunk index, when it carries one that
	// parsed and verified; nil otherwise (no trailer, or a damaged trailer —
	// lenient parsing drops a damaged index rather than failing the decode).
	// Callers must treat its Layer/X0/Y0 fields as untrusted until validated
	// against their own metadata: the codec only cross-checks the index
	// against the chunk table and plane dims.
	Index *ChunkIndex
}

// OK reports whether every chunk decoded.
func (r *PartialResult) OK() bool { return len(r.Errors) == 0 }

// Recovered reports how many planes decoded successfully.
func (r *PartialResult) Recovered() int {
	n := 0
	for _, p := range r.Planes {
		if p != nil {
			n++
		}
	}
	return n
}

// decodePartial is the core of Decoder.DecodePartial: lenient parse, then
// decode every chunk whose bytes survived it.
func decodePartial(ctx context.Context, data []byte, workers int, m *decMetrics) (*PartialResult, error) {
	pc, err := parseContainerObs(data, true, m)
	if err != nil {
		return nil, err
	}
	if m != nil {
		m.calls.Inc()
	}
	planes, chunkErrs := decodeChunks(ctx, pc, workers, m)
	// Cancellation wins over partial recovery: the caller already walked
	// away, so a canceled call reports ctx.Err() instead of a result whose
	// "failed" chunks were merely skipped.
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	return &PartialResult{Planes: planes, Chunks: len(pc.chunks), Errors: chunkErrs, Index: pc.index}, nil
}
