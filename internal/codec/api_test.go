package codec

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/frame"
	"repro/internal/obs"
)

// TestEncoderDecoderMatrix is the one table over the public API: for every
// Container × backend, the output bytes and Stats are the same for every
// worker count, with and without a metrics registry, and under a
// background or a cancellable (never fired) context; and Decode,
// DecodePartial and DecodeRegion, configured the same way, return the same
// planes as the reference decode. Reconstructions also agree across
// containers, since the chunk partition does not depend on the container.
//
// What is under test is the API plumbing, not the coding tools, so the
// matrix runs the cheapest configuration that still emits every syntax
// class (H.264 modes, fixed 16×16 CUs): it keeps the 192-encode table fast
// under -race.
func TestEncoderDecoderMatrix(t *testing.T) {
	cabac := Tools{Transform: true, IntraPred: true, CABAC: true}
	rans := cabac
	rans.Backend = BackendRANS
	rng := rand.New(rand.NewSource(91))
	workloads := []struct {
		name   string
		planes []*frame.Plane
	}{
		// 192×176 fills a chunk alone; the two small planes share a second.
		{"two-chunk", []*frame.Plane{channelPlane(rng, 192, 176), gradientPlane(rng, 40, 40), noisePlane(rng, 24, 17)}},
		{"one-chunk", []*frame.Plane{gradientPlane(rng, 48, 40)}},
	}
	containers := []Container{ContainerAuto, ContainerChecksummed, ContainerIndexed}
	ctxs := []struct {
		name string
		ctx  func() (context.Context, context.CancelFunc)
	}{
		{"background", func() (context.Context, context.CancelFunc) { return context.Background(), func() {} }},
		{"cancellable", func() (context.Context, context.CancelFunc) { return context.WithCancel(context.Background()) }},
	}

	for _, wl := range workloads {
		for _, tools := range []Tools{cabac, rans} {
			var backendRec []*frame.Plane // first container's reconstruction
			for _, c := range containers {
				name := fmt.Sprintf("%s/%v/container=%d", wl.name, tools.Backend, c)
				t.Run(name, func(t *testing.T) {
					enc := Encoder{Profile: H264, Tools: tools, Workers: 1, Container: c}
					ref, refSt, err := enc.Encode(context.Background(), wl.planes, 28)
					if err != nil {
						t.Fatal(err)
					}
					refDec, err := Decoder{Workers: 1}.Decode(context.Background(), ref)
					if err != nil {
						t.Fatal(err)
					}
					if backendRec == nil {
						backendRec = refDec
					}
					requirePlanesEqual(t, "reconstruction vs first container", refDec, backendRec)

					for _, workers := range []int{1, 2, 4, 8} {
						for _, withReg := range []bool{false, true} {
							for _, cx := range ctxs {
								label := fmt.Sprintf("workers=%d metrics=%v ctx=%s", workers, withReg, cx.name)
								var reg *obs.Registry
								if withReg {
									reg = obs.NewRegistry()
								}
								ctx, cancel := cx.ctx()
								enc.Workers, enc.Metrics = workers, reg
								got, st, err := enc.Encode(ctx, wl.planes, 28)
								if err != nil {
									t.Fatalf("%s: encode: %v", label, err)
								}
								if !bytes.Equal(got, ref) || st != refSt {
									t.Fatalf("%s: encode output differs from workers=1", label)
								}

								dec := Decoder{Workers: workers, Metrics: reg}
								planes, err := dec.Decode(ctx, got)
								if err != nil {
									t.Fatalf("%s: Decode: %v", label, err)
								}
								requirePlanesEqual(t, label+" Decode", planes, refDec)
								res, err := dec.DecodePartial(ctx, got)
								if err != nil || !res.OK() {
									t.Fatalf("%s: DecodePartial: %v, %+v", label, err, res)
								}
								requirePlanesEqual(t, label+" DecodePartial", res.Planes, refDec)
								for first := range refDec {
									region, err := dec.DecodeRegion(ctx, got, first, 1)
									if err != nil {
										t.Fatalf("%s: DecodeRegion(%d): %v", label, first, err)
									}
									requirePlanesEqual(t, label+" DecodeRegion", region, refDec[first:first+1])
								}
								cancel()
							}
						}
					}
				})
			}
		}
	}
}

// TestEncodeRejectsMalformedPlanes: a plane list with nothing codable in
// it is an error matching ErrEmptyInput on every encode path — never a
// panic from deep inside the encoder.
func TestEncodeRejectsMalformedPlanes(t *testing.T) {
	ok := frame.NewPlane(16, 16)
	cases := []struct {
		name   string
		planes []*frame.Plane
	}{
		{"empty list", nil},
		{"nil plane", []*frame.Plane{nil}},
		{"zero-dim plane", []*frame.Plane{{W: 0, H: 32}}},
		{"zero-height plane", []*frame.Plane{{W: 32, H: 0}}},
		{"short pixels", []*frame.Plane{{W: 4, H: 4, Pix: make([]uint8, 10)}}},
		{"nil after valid", []*frame.Plane{ok, nil}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			check := func(label string, err error) {
				t.Helper()
				if !errors.Is(err, ErrEmptyInput) {
					t.Errorf("%s: err = %v, want ErrEmptyInput", label, err)
				}
			}
			for _, tools := range []Tools{AllTools, ransTools()} {
				for _, c := range []Container{ContainerAuto, ContainerChecksummed, ContainerIndexed} {
					for _, workers := range []int{1, 4} {
						enc := Encoder{Profile: HEVC, Tools: tools, Workers: workers, Container: c}
						_, _, err := enc.Encode(context.Background(), tc.planes, 28)
						check(fmt.Sprintf("%v container=%d workers=%d", tools.Backend, c, workers), err)
					}
				}
				_, _, err := encodeSerial(context.Background(), tc.planes, 28, HEVC, tools, nil)
				check(fmt.Sprintf("%v encodeSerial", tools.Backend), err)
				_, _, err = NewAppender(28, HEVC, tools, 2, nil).Append(context.Background(), tc.planes, nil)
				check(fmt.Sprintf("%v Appender", tools.Backend), err)
			}
		})
	}
}

// TestEncoderRejectsRegionsWithoutIndex: region rects only have a place in
// the index trailer, so asking for them on another container is an error.
func TestEncoderRejectsRegionsWithoutIndex(t *testing.T) {
	planes := []*frame.Plane{frame.NewPlane(16, 16)}
	regions := []PlaneRegion{{W: 16, H: 16}}
	for _, c := range []Container{ContainerAuto, ContainerChecksummed} {
		enc := Encoder{Profile: HEVC, Tools: AllTools, Container: c, Regions: regions}
		if _, _, err := enc.Encode(context.Background(), planes, 28); err == nil {
			t.Errorf("container=%d accepted index regions", c)
		}
	}
	if _, _, err := (Encoder{Profile: HEVC, Tools: AllTools, Container: ContainerIndexed + 1}).Encode(context.Background(), planes, 28); err == nil {
		t.Error("unknown container accepted")
	}
}
