package codec

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"repro/internal/frame"
	"repro/internal/obs"
)

// appendPlanes builds n deterministic 32×16 planes with their token-space
// region rects (one plane = one 16-row flush group of a 32-wide session).
func appendPlanes(seed int64, n int) ([]*frame.Plane, []PlaneRegion) {
	rng := rand.New(rand.NewSource(seed))
	planes := make([]*frame.Plane, n)
	regions := make([]PlaneRegion, n)
	for i := range planes {
		planes[i] = gradientPlane(rng, 32, 16)
		regions[i] = PlaneRegion{Layer: 0, X0: 0, Y0: i * 16, W: 32, H: 16}
	}
	return planes, regions
}

// appendSchedule feeds planes into app in batches given by sizes.
func appendSchedule(t *testing.T, app *Appender, planes []*frame.Plane, regions []PlaneRegion, sizes []int) [][]byte {
	t.Helper()
	var all [][]byte
	off := 0
	for _, k := range sizes {
		payloads, st, err := app.Append(context.Background(), planes[off:off+k], regions[off:off+k])
		if err != nil {
			t.Fatalf("Append(%d planes at %d): %v", k, off, err)
		}
		if st.Chunks != k {
			t.Fatalf("Append(%d planes) reported %d chunks", k, st.Chunks)
		}
		all = append(all, payloads...)
		off += k
	}
	if off != len(planes) {
		t.Fatalf("schedule covers %d of %d planes", off, len(planes))
	}
	return all
}

// TestAppenderSnapshotMatchesOneShot: for both backends and several worker
// counts, a full-range snapshot of an incrementally grown container decodes
// to exactly the planes a one-shot encode of the same stack reconstructs —
// and every partial snapshot equals the matching crop.
func TestAppenderSnapshotMatchesOneShot(t *testing.T) {
	planes, regions := appendPlanes(11, 8)
	for _, tools := range []Tools{AllTools, ransTools()} {
		oneShot, _, err := Encoder{Profile: HEVC, Tools: tools, Workers: 2, Container: ContainerChecksummed}.Encode(context.Background(), planes, 24)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Decoder{Workers: 2}.Decode(context.Background(), oneShot)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4, 8} {
			app := NewAppender(24, HEVC, tools, workers, nil)
			appendSchedule(t, app, planes, regions, []int{1, 3, 2, 1, 1})
			snap, err := app.Snapshot(0, 8)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Decoder{Workers: workers}.Decode(context.Background(), snap)
			if err != nil {
				t.Fatalf("backend %v workers %d: decoding snapshot: %v", tools.Backend, workers, err)
			}
			requirePlanesEqual(t, "snapshot vs one-shot", got, want)

			// The snapshot is a genuine indexed container: its trailer carries
			// the absolute token-space rects.
			idx, err := ReadIndex(snap)
			if err != nil || idx == nil {
				t.Fatalf("snapshot index: %v, %v", idx, err)
			}
			for i, r := range idx.Regions {
				if r != regions[i] {
					t.Fatalf("snapshot region %d = %+v, want %+v", i, r, regions[i])
				}
			}

			// Partial snapshots: every window equals the full decode's crop.
			for _, win := range [][2]int{{0, 1}, {3, 2}, {7, 1}, {2, 6}} {
				snap, err := app.Snapshot(win[0], win[1])
				if err != nil {
					t.Fatalf("Snapshot[%d,+%d): %v", win[0], win[1], err)
				}
				got, err := Decoder{Workers: workers}.Decode(context.Background(), snap)
				if err != nil {
					t.Fatalf("decoding Snapshot[%d,+%d): %v", win[0], win[1], err)
				}
				requirePlanesEqual(t, "partial snapshot", got, want[win[0]:win[0]+win[1]])
			}
		}
	}
}

// TestAppenderScheduleIndependentBytes: the payload bytes (and so the full
// snapshot) of an appended container depend only on the plane sequence,
// never on how the appends were batched — the content-addressing contract
// the kv tier's prefix aliasing is built on.
func TestAppenderScheduleIndependentBytes(t *testing.T) {
	planes, regions := appendPlanes(23, 7)
	schedules := [][]int{{7}, {1, 1, 1, 1, 1, 1, 1}, {2, 3, 2}, {1, 6}}
	for _, tools := range []Tools{AllTools, ransTools()} {
		var refPayloads [][]byte
		var refSnap []byte
		for si, sizes := range schedules {
			app := NewAppender(24, HEVC, tools, 2, nil)
			payloads := appendSchedule(t, app, planes, regions, sizes)
			snap, err := app.Snapshot(0, 7)
			if err != nil {
				t.Fatal(err)
			}
			if si == 0 {
				refPayloads, refSnap = payloads, snap
				continue
			}
			for i := range payloads {
				if !bytes.Equal(payloads[i], refPayloads[i]) {
					t.Fatalf("backend %v schedule %v: chunk %d payload differs", tools.Backend, sizes, i)
				}
			}
			if !bytes.Equal(snap, refSnap) {
				t.Fatalf("backend %v schedule %v: snapshot bytes differ", tools.Backend, sizes)
			}
		}
	}
}

// TestAppenderNeverReencodes is the acceptance-criteria counter proof: each
// Append advances codec.encode.chunks by exactly the planes it carried, and
// the aliased AppendEncoded path advances it by zero.
func TestAppenderNeverReencodes(t *testing.T) {
	planes, regions := appendPlanes(5, 6)
	reg := obs.NewRegistry()
	chunks := func() int64 { return reg.Snapshot().Counters["codec.encode.chunks"] }

	app := NewAppender(24, HEVC, AllTools, 1, reg)
	var payloads [][]byte
	for i, k := range []int{1, 2, 3} {
		before := chunks()
		got, _, err := app.Append(context.Background(), planes[len(payloads):len(payloads)+k], regions[len(payloads):len(payloads)+k])
		if err != nil {
			t.Fatal(err)
		}
		payloads = append(payloads, got...)
		if d := chunks() - before; d != int64(k) {
			t.Fatalf("append %d: encode.chunks advanced by %d, want %d", i, d, k)
		}
	}

	// Aliasing the same six chunks into a twin appender encodes nothing.
	before := chunks()
	twin := NewAppender(24, HEVC, AllTools, 1, reg)
	for i, p := range payloads {
		if err := twin.AppendEncoded(p, 32, 16, regions[i]); err != nil {
			t.Fatal(err)
		}
	}
	if d := chunks() - before; d != 0 {
		t.Fatalf("aliased appends advanced encode.chunks by %d", d)
	}
	a, err := app.Snapshot(0, 6)
	if err != nil {
		t.Fatal(err)
	}
	b, err := twin.Snapshot(0, 6)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("aliased twin snapshot differs from the donor's")
	}
}

// TestAppenderRansTableAdoption: an aliased rANS session must adopt the
// donor's frozen table before AppendEncoded, after which donor and twin are
// byte-identical; a conflicting adoption is rejected.
func TestAppenderRansTableAdoption(t *testing.T) {
	planes, regions := appendPlanes(17, 4)
	donor := NewAppender(24, HEVC, ransTools(), 1, nil)
	payloads := appendSchedule(t, donor, planes, regions, []int{2, 2})
	tab := donor.Table()
	if tab == nil {
		t.Fatal("donor has no frozen table")
	}

	twin := NewAppender(24, HEVC, ransTools(), 1, nil)
	if err := twin.AppendEncoded(payloads[0], 32, 16, regions[0]); err == nil {
		t.Fatal("AppendEncoded accepted a rANS chunk before table adoption")
	}
	if err := twin.SetTable(tab); err != nil {
		t.Fatal(err)
	}
	for i, p := range payloads {
		if err := twin.AppendEncoded(p, 32, 16, regions[i]); err != nil {
			t.Fatal(err)
		}
	}
	a, _ := donor.Snapshot(0, 4)
	b, _ := twin.Snapshot(0, 4)
	if !bytes.Equal(a, b) {
		t.Fatal("aliased rANS twin snapshot differs from the donor's")
	}
	if _, err := (Decoder{Workers: 4}).Decode(context.Background(), b); err != nil {
		t.Fatalf("decoding aliased rANS snapshot: %v", err)
	}

	// Freezing a different table over an existing one is an error; the
	// identical table is a no-op.
	other := append([]uint8(nil), tab...)
	other[0] ^= 0x55
	if err := twin.SetTable(other); err == nil {
		t.Fatal("SetTable accepted a conflicting table")
	}
	if err := twin.SetTable(tab); err != nil {
		t.Fatalf("re-adopting the same table: %v", err)
	}
}

// TestAppenderDropPlanes: dropping the prefix frees its bytes, later
// snapshots of the live suffix still decode, and snapshots reaching into the
// dropped prefix are refused.
func TestAppenderDropPlanes(t *testing.T) {
	planes, regions := appendPlanes(29, 6)
	app := NewAppender(24, HEVC, AllTools, 2, nil)
	appendSchedule(t, app, planes, regions, []int{6})
	oneShot, _ := app.Snapshot(0, 6)
	want, err := Decoder{Workers: 2}.Decode(context.Background(), oneShot)
	if err != nil {
		t.Fatal(err)
	}

	total := app.PayloadBytes()
	freed := app.DropPlanes(3)
	if freed <= 0 || app.PayloadBytes() != total-freed {
		t.Fatalf("DropPlanes freed %d, resident %d of %d", freed, app.PayloadBytes(), total)
	}
	if app.DroppedPlanes() != 3 {
		t.Fatalf("DroppedPlanes = %d, want 3", app.DroppedPlanes())
	}
	// Dropping again (or a smaller prefix) is idempotent.
	if again := app.DropPlanes(2); again != 0 {
		t.Fatalf("re-drop freed %d bytes", again)
	}

	snap, err := app.Snapshot(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decoder{Workers: 2}.Decode(context.Background(), snap)
	if err != nil {
		t.Fatal(err)
	}
	requirePlanesEqual(t, "post-drop suffix", got, want[3:])

	for _, win := range [][2]int{{0, 6}, {2, 2}, {0, 1}} {
		if _, err := app.Snapshot(win[0], win[1]); err == nil {
			t.Fatalf("Snapshot[%d,+%d) reached into the dropped prefix", win[0], win[1])
		}
	}

	// Appending continues after a drop.
	more, moreRegions := appendPlanes(31, 1)
	moreRegions[0].Y0 = 6 * 16
	if _, _, err := app.Append(context.Background(), more, moreRegions); err != nil {
		t.Fatal(err)
	}
	if app.Planes() != 7 {
		t.Fatalf("Planes = %d, want 7", app.Planes())
	}
	if _, err := app.Snapshot(6, 1); err != nil {
		t.Fatal(err)
	}
}

// TestAppenderSnapshotDecodeIsORegion: decoding a two-plane snapshot out of
// a ten-plane session touches exactly two chunks — the decode.chunks bound
// the GET ?range= path inherits.
func TestAppenderSnapshotDecodeIsORegion(t *testing.T) {
	planes, regions := appendPlanes(41, 10)
	app := NewAppender(24, HEVC, AllTools, 1, nil)
	appendSchedule(t, app, planes, regions, []int{10})
	snap, err := app.Snapshot(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	if _, err := (Decoder{Workers: 2, Metrics: reg}).Decode(context.Background(), snap); err != nil {
		t.Fatal(err)
	}
	if n := reg.Snapshot().Counters["codec.decode.chunks"]; n != 2 {
		t.Fatalf("two-plane snapshot decode touched %d chunks", n)
	}
}
