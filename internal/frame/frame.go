// Package frame provides the 8-bit picture model the video codec operates
// on: single-channel (luma) planes, since LLM.265 encodes tensors using only
// the luma channel with chroma zero-padded (§3.2 of the paper).
package frame

import "fmt"

// Plane is an 8-bit single-channel image.
type Plane struct {
	W, H int
	Pix  []uint8 // row-major, len W*H
}

// NewPlane allocates a zeroed W×H plane.
func NewPlane(w, h int) *Plane {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("frame: invalid plane size %dx%d", w, h))
	}
	return &Plane{W: w, H: h, Pix: make([]uint8, w*h)}
}

// At returns the pixel at (x, y). The caller must stay in bounds.
func (p *Plane) At(x, y int) uint8 { return p.Pix[y*p.W+x] }

// Set writes the pixel at (x, y).
func (p *Plane) Set(x, y int, v uint8) { p.Pix[y*p.W+x] = v }

// Row returns the y-th row as a slice aliasing the plane.
func (p *Plane) Row(y int) []uint8 { return p.Pix[y*p.W : y*p.W+p.W] }

// Reuse resizes p in place to w×h, reusing (and growing as needed) its pixel
// buffer, and returns p. The pixel contents after Reuse are unspecified —
// callers must write every pixel they later read. This is the zero-allocation
// counterpart of NewPlane for pooled scratch planes that live across frames
// (see the codec's per-worker scratch arena).
func (p *Plane) Reuse(w, h int) *Plane {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("frame: invalid plane size %dx%d", w, h))
	}
	if n := w * h; cap(p.Pix) < n {
		p.Pix = make([]uint8, n)
	} else {
		p.Pix = p.Pix[:n]
	}
	p.W, p.H = w, h
	return p
}

// Clone returns a deep copy of the plane.
func (p *Plane) Clone() *Plane {
	q := NewPlane(p.W, p.H)
	copy(q.Pix, p.Pix)
	return q
}

// Equal reports whether two planes have identical size and content.
func (p *Plane) Equal(q *Plane) bool {
	if p.W != q.W || p.H != q.H {
		return false
	}
	for i := range p.Pix {
		if p.Pix[i] != q.Pix[i] {
			return false
		}
	}
	return true
}

// MSE computes the mean squared error between two equally-sized planes.
func (p *Plane) MSE(q *Plane) float64 {
	if p.W != q.W || p.H != q.H {
		panic("frame: MSE size mismatch")
	}
	var s float64
	for i := range p.Pix {
		d := float64(int(p.Pix[i]) - int(q.Pix[i]))
		s += d * d
	}
	return s / float64(len(p.Pix))
}

// Region is one rectangle of the FromMatrix band/slab split: the plane with
// the same index covers the matrix cells [Y0, Y0+H) × [X0, X0+W).
type Region struct {
	X0, Y0, W, H int
}

// Regions returns the deterministic band/slab partition FromMatrix applies
// to a rows×cols matrix: horizontal bands of maxH rows, bands wider than
// maxW split into column slabs. Region i corresponds to plane i of
// FromMatrix's output, which lets callers reassemble (or partially
// reassemble) a matrix from any subset of its planes.
func Regions(rows, cols, maxW, maxH int) []Region {
	var regs []Region
	for y0 := 0; y0 < rows; y0 += maxH {
		h := min(maxH, rows-y0)
		for x0 := 0; x0 < cols; x0 += maxW {
			w := min(maxW, cols-x0)
			regs = append(regs, Region{X0: x0, Y0: y0, W: w, H: h})
		}
	}
	return regs
}

// FromMatrix packs a rows×cols byte matrix (flat, row-major) into one or more
// planes, each at most maxW×maxH, mirroring how LLM.265 chunks tensors to
// respect NVENC frame-size limits. Rows are kept contiguous: the matrix is
// split into horizontal bands of maxH rows; bands wider than maxW are split
// into column slabs. Planes are emitted at their natural (unpadded) sizes —
// the ragged final band/slab is NOT padded here. CTU alignment is the
// encoder's job: the codec encoder edge-replicates each frame up to the CTU
// multiple internally (so block statistics stay representative) and crops
// the reconstruction back, which keeps ToMatrix a pure inverse of this
// function.
func FromMatrix(data []uint8, rows, cols, maxW, maxH int) []*Plane {
	if len(data) != rows*cols {
		panic("frame: FromMatrix size mismatch")
	}
	var planes []*Plane
	for y0 := 0; y0 < rows; y0 += maxH {
		h := min(maxH, rows-y0)
		for x0 := 0; x0 < cols; x0 += maxW {
			w := min(maxW, cols-x0)
			pl := NewPlane(w, h)
			for y := 0; y < h; y++ {
				copy(pl.Row(y), data[(y0+y)*cols+x0:(y0+y)*cols+x0+w])
			}
			planes = append(planes, pl)
		}
	}
	return planes
}

// ToMatrix reassembles planes produced by FromMatrix into the original
// rows×cols matrix.
func ToMatrix(planes []*Plane, rows, cols, maxW, maxH int) []uint8 {
	out := make([]uint8, rows*cols)
	for i, reg := range Regions(rows, cols, maxW, maxH) {
		pl := planes[i]
		if pl.W != reg.W || pl.H != reg.H {
			panic("frame: ToMatrix plane size mismatch")
		}
		for y := 0; y < reg.H; y++ {
			copy(out[(reg.Y0+y)*cols+reg.X0:(reg.Y0+y)*cols+reg.X0+reg.W], pl.Row(y))
		}
	}
	return out
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
