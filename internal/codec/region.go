// Indexed encode and O(region) random-access decode (DESIGN.md §15).
//
// ContainerIndexed emits the hardened v3 container extended with the
// chunk-index trailer; Decoder.DecodeRegion decodes only the chunks
// overlapping a plane range.
// Because chunks are fully independent substreams, a region decode touches
// O(region) chunks, not O(stream) — the codec.decode.chunks counter counts
// exactly the chunks decoded, so /metricsz proves the bound. Region bytes are
// the same planes a full decode would produce (verified by the golden
// equivalence matrix in region_test.go for both entropy backends and all
// worker counts).
package codec

import (
	"context"
	"fmt"

	"repro/internal/frame"
)

// decodeRegion is the core of Decoder.DecodeRegion: strict parse, select
// the chunks overlapping the plane range, decode only those.
func decodeRegion(ctx context.Context, data []byte, first, count, workers int, m *decMetrics) ([]*frame.Plane, error) {
	pc, err := parseContainerObs(data, false, m)
	if err != nil {
		return nil, err
	}
	if m != nil {
		m.calls.Inc()
	}
	if first < 0 || count <= 0 || first+count > len(pc.dims) {
		// A bad range is a caller bug, not damaged bytes: plain error, outside
		// the decode taxonomy.
		return nil, fmt.Errorf("codec: region planes [%d,%d) out of range for %d-plane container",
			first, first+count, len(pc.dims))
	}
	// Select the chunks whose plane spans overlap [first, first+count). The
	// sub-container shares dims/planeBase with the original, so decodeChunks
	// scatters recovered planes to their absolute container positions, and
	// surplus workers still become rANS lane parallelism.
	sub := *pc
	sub.chunks = nil
	var picked []int
	for i := range pc.chunks {
		c := &pc.chunks[i]
		if c.planeBase < first+count && c.planeBase+len(c.dims) > first {
			sub.chunks = append(sub.chunks, *c)
			picked = append(picked, i)
		}
	}
	planes, chunkErrs := decodeChunks(ctx, &sub, workers, m)
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	if len(chunkErrs) > 0 {
		ce := chunkErrs[0]
		ce.Chunk = picked[ce.Chunk] // report the original chunk position
		return nil, ce
	}
	return planes[first : first+count], nil
}
