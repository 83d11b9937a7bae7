// O(region) random access into a compressed stack (DESIGN.md §15).
//
// DecodeLayer reconstructs one layer of an Encoded without decoding the rest
// of the stream: the layer's planes occupy a contiguous plane range, and the
// codec's chunk partition means only the chunks overlapping that range are
// entropy-decoded (proved by the codec.decode.chunks counter). This is what
// makes a packed checkpoint servable — internal/store's LRU decodes layers
// on demand under a byte budget instead of materializing the whole stack.
package core

import (
	"context"
	"fmt"

	"repro/internal/codec"
	"repro/internal/frame"
)

// validateIndexRegions checks a stream-carried region table against the
// metadata-derived mapping: plane l*perLayer+i must claim layer l and region
// regs[i]. The codec verifies the table only against the container (entry
// spans, plane dims), so Layer/X0/Y0 arrive here untrusted — a forged
// trailer with a self-consistent CRC could otherwise scatter planes into
// out-of-range layers. Any disagreement is ErrCorrupt, never acted on.
func (e *Encoded) validateIndexRegions(regions []codec.PlaneRegion, regs []frame.Region) error {
	if regions == nil {
		return nil
	}
	perLayer := len(regs)
	if len(regions) != e.Layers*perLayer {
		return fmt.Errorf("core: index maps %d planes, metadata wants %d×%d: %w",
			len(regions), e.Layers, perLayer, ErrCorrupt)
	}
	for i, r := range regions {
		want := regs[i%perLayer]
		if r.Layer != i/perLayer || r.X0 != want.X0 || r.Y0 != want.Y0 || r.W != want.W || r.H != want.H {
			return fmt.Errorf("core: index maps plane %d to layer %d region (%d,%d %dx%d), metadata wants layer %d (%d,%d %dx%d): %w",
				i, r.Layer, r.X0, r.Y0, r.W, r.H, i/perLayer, want.X0, want.Y0, want.W, want.H, ErrCorrupt)
		}
	}
	return nil
}

// DecodeLayer reconstructs layer l of the stack, decoding only the bitstream
// chunks that cover it. The result is byte-identical to DecodeStack's l-th
// tensor (the golden equivalence matrix in layer_test.go pins this for both
// entropy backends and all worker counts); the work is O(layer), not
// O(stack).
func (o Options) DecodeLayer(e *Encoded, l int) (*Tensor, error) {
	return o.DecodeLayerCtx(context.Background(), e, l)
}

// DecodeLayerCtx is DecodeLayer under a context: cancellation aborts the
// remaining chunk decodes and returns ctx.Err() (never wrapped into the
// decode-error taxonomy).
func (o Options) DecodeLayerCtx(ctx context.Context, e *Encoded, l int) (*Tensor, error) {
	o = o.normalized()
	if err := e.validate(); err != nil {
		o.Metrics.Add("core.decode.errors", 1)
		return nil, err
	}
	if l < 0 || l >= e.Layers {
		return nil, fmt.Errorf("core: layer %d out of range for %d-layer stack", l, e.Layers)
	}
	span := o.Metrics.StartSpan("core.decode_layer")
	regs := e.regions()
	perLayer := len(regs)

	// The stream's own geometry must agree with the metadata before any
	// plane range is trusted; Layout also surfaces the trailer index so a
	// forged region table is rejected rather than decoded around.
	lay, err := codec.Layout(e.Stream)
	if err != nil {
		o.Metrics.Add("core.decode.errors", 1)
		return nil, err
	}
	if lay.Planes != e.Layers*perLayer {
		o.Metrics.Add("core.decode.errors", 1)
		return nil, fmt.Errorf("core: stream decodes to %d planes, metadata wants %d×%d: %w",
			lay.Planes, e.Layers, perLayer, ErrCorrupt)
	}
	if lay.Index != nil {
		if err := e.validateIndexRegions(lay.Index.Regions, regs); err != nil {
			o.Metrics.Add("core.decode.errors", 1)
			return nil, err
		}
	}

	planes, err := codec.Decoder{Workers: o.Workers, Metrics: o.Metrics}.DecodeRegion(ctx, e.Stream, l*perLayer, perLayer)
	if err != nil {
		o.Metrics.Add("core.decode.errors", 1)
		return nil, err
	}
	for i, p := range planes {
		if p.W != regs[i].W || p.H != regs[i].H {
			o.Metrics.Add("core.decode.errors", 1)
			return nil, fmt.Errorf("core: plane %d of layer %d is %dx%d, metadata wants %dx%d: %w",
				i, l, p.W, p.H, regs[i].W, regs[i].H, ErrCorrupt)
		}
	}
	t, _ := e.dequantLayer(l, planes, regs)
	span.End()
	if o.Metrics != nil {
		o.Metrics.Add("core.decode.layers", 1)
		o.Metrics.Add("core.decode.values", int64(e.Rows)*int64(e.Cols))
	}
	return t, nil
}
