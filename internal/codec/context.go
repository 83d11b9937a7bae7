// Cooperative cancellation for the encode/decode engine (DESIGN.md §12).
//
// The serving layer threads a per-request context down into the codec so a
// client that hangs up — or a request that blows its deadline — stops burning
// worker CPU promptly instead of running its encode to completion. Three
// levels cooperate:
//
//   - Pool level: the engine's worker goroutines check the context before
//     picking up each chunk job, so queued chunks of a canceled request are
//     skipped outright.
//   - Chunk level: encodeChunk/decodeChunkPayload trap a cancelAbort panic at
//     the chunk boundary and surface ctx.Err() with no partial output.
//   - CTU level: the per-CTU loops in encodeFrame/decodeFrame poll ctx.Err()
//     once per coding-tree unit — the mid-chunk check that bounds
//     cancellation latency to a handful of CTU times (microseconds), far
//     below the serve layer's 100ms promptness budget.
//
// A canceled call returns exactly ctx.Err() (context.Canceled or
// context.DeadlineExceeded), never wrapped into the decode-error taxonomy:
// cancellation is the caller's doing, not a property of the bytes. A caller
// with no deadline passes context.Background(), whose Done channel is nil,
// so cancellable() collapses the whole machinery to a single nil pointer
// check on the hot path — output bytes are unchanged, proved by the golden
// conformance corpus running through these same code paths.
package codec

import (
	"context"
	"errors"
)

// cancelAbort carries a context cancellation out of the deep per-CTU loops
// (which have no error returns) up to the chunk boundary, where encodeChunk
// and decodeChunkPayload trap it and return err instead of propagating.
type cancelAbort struct{ err error }

// cancellable returns ctx when it can ever be canceled, nil otherwise.
// context.Background(), context.TODO() and nil all collapse to nil, so the
// per-CTU poll in the hot loops stays a single pointer comparison for every
// caller that does not thread a real deadline.
func cancellable(ctx context.Context) context.Context {
	if ctx == nil || ctx.Done() == nil {
		return nil
	}
	return ctx
}

// ctxErr reports ctx's cancellation error, tolerating nil.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// IsCancellation reports whether err is a context cancellation rather than a
// member of the decode-error taxonomy. Serving layers branch on this to map
// deadline blowouts to 504 instead of a payload-error status.
func IsCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
