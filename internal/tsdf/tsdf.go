// Package tsdf implements the dense truncated signed-distance-function
// volume at the heart of KinectFusion: depth-image integration, trilinear
// sampling, surface ray-casting and mesh extraction.
//
// The volume is a cube of Res³ voxels spanning Size metres, positioned by
// Origin (the world coordinate of the corner of voxel (0,0,0)). Each voxel
// stores a TSDF value normalised to [-1, 1] (distance divided by the
// truncation band mu), an integration weight and a free bit that lets
// the sampler skip observed free space.
package tsdf

import (
	"fmt"
	"math"

	"slamgo/internal/camera"
	"slamgo/internal/imgproc"
	"slamgo/internal/math3"
	"slamgo/internal/parallel"
)

// Volume is the dense TSDF grid. Beside each voxel's TSDF value and
// weight it keeps one free bit, set exactly when the voxel is observed
// free space (W > 0 and D == 1), so the sampler can answer a cell of
// eight free voxels without reading them (see sample).
type Volume struct {
	Res    int        // voxels per side
	Size   float64    // metres per side
	Origin math3.Vec3 // world position of the min corner

	// D holds normalised TSDF values in [-1,1]; W holds weights. Both are
	// indexed [z*Res*Res + y*Res + x]. A set free bit implies W > 0 and
	// D == 1 at its voxel, so write them only through Integrate, Reset
	// and Resize, which keep the bits.
	D []float32
	W []float32

	// free holds the free bits, voxel (x,y,z) at bit z*plane + y*Res + x.
	// plane is Res² rounded up to a multiple of 64, so every z-plane
	// starts on a word and Integrate's z-slabs never share a word.
	free  []uint64
	plane int
}

// New allocates a volume of res³ voxels spanning size metres with its min
// corner at origin. All voxels start at TSDF=1 (free/unknown) with zero
// weight.
func New(res int, size float64, origin math3.Vec3) *Volume {
	v := &Volume{}
	v.Resize(res, size, origin)
	return v
}

// VoxelSize returns the edge length of one voxel in metres.
func (v *Volume) VoxelSize() float64 { return v.Size / float64(v.Res) }

// Resize turns v into a volume of res³ voxels spanning size metres with
// its min corner at origin, every voxel unobserved. It keeps the D, W
// and free-bit storage when its capacity holds res³ voxels and
// allocates otherwise, so a volume reused for a smaller grid costs a
// reset, not an allocation.
func (v *Volume) Resize(res int, size float64, origin math3.Vec3) {
	if res < 2 {
		panic(fmt.Sprintf("tsdf: resolution %d too small", res))
	}
	n := res * res * res
	v.Res, v.Size, v.Origin = res, size, origin
	v.plane = (res*res + 63) &^ 63
	words := res * v.plane / 64
	if cap(v.D) >= n && cap(v.free) >= words {
		v.D, v.W, v.free = v.D[:n], v.W[:n], v.free[:words]
		v.reset(true)
		return
	}
	v.D, v.W, v.free = nil, nil, nil // let the old grid go before allocating
	v.D = make([]float32, n)
	v.W = make([]float32, n)
	v.free = make([]uint64, words)
	v.reset(false) // fresh weights and bits are already zero
}

// Reset returns every voxel to the unobserved state (TSDF=1, weight 0,
// free bit clear).
func (v *Volume) Reset() { v.reset(true) }

// reset sets every TSDF value to 1 in parallel slabs and, when dirty is
// set, clears every weight and every free bit.
func (v *Volume) reset(dirty bool) {
	parallel.For(len(v.D), 0, func(lo, hi int) {
		d := v.D[lo:hi]
		for i := range d {
			d[i] = 1
		}
		if dirty {
			clear(v.W[lo:hi])
		}
	})
	if dirty {
		clear(v.free)
	}
}

// index returns the linear index for voxel (x,y,z); callers guarantee
// bounds.
func (v *Volume) index(x, y, z int) int { return (z*v.Res+y)*v.Res + x }

// At returns the stored TSDF value and weight at voxel coordinates.
func (v *Volume) At(x, y, z int) (d, w float32) {
	i := v.index(x, y, z)
	return v.D[i], v.W[i]
}

// VoxelCenter returns the world coordinate of the centre of voxel (x,y,z).
func (v *Volume) VoxelCenter(x, y, z int) math3.Vec3 {
	s := v.VoxelSize()
	return v.Origin.Add(math3.V3(
		(float64(x)+0.5)*s,
		(float64(y)+0.5)*s,
		(float64(z)+0.5)*s,
	))
}

// Contains reports whether world point p falls inside the volume cube.
func (v *Volume) Contains(p math3.Vec3) bool {
	q := p.Sub(v.Origin)
	return q.X >= 0 && q.Y >= 0 && q.Z >= 0 &&
		q.X < v.Size && q.Y < v.Size && q.Z < v.Size
}

// Interp samples the TSDF at world point p by trilinear interpolation.
// ok is false when p lies outside the interpolable interior or touches
// unobserved voxels (weight 0).
func (v *Volume) Interp(p math3.Vec3) (val float64, ok bool) {
	s := v.VoxelSize()
	g := p.Sub(v.Origin).Scale(1 / s).Sub(math3.Splat3(0.5))
	x0 := int(math.Floor(g.X))
	y0 := int(math.Floor(g.Y))
	z0 := int(math.Floor(g.Z))
	if x0 < 0 || y0 < 0 || z0 < 0 || x0+1 >= v.Res || y0+1 >= v.Res || z0+1 >= v.Res {
		return 0, false
	}
	fx := g.X - float64(x0)
	fy := g.Y - float64(y0)
	fz := g.Z - float64(z0)

	var acc float64
	for dz := 0; dz < 2; dz++ {
		wz := fz
		if dz == 0 {
			wz = 1 - fz
		}
		for dy := 0; dy < 2; dy++ {
			wy := fy
			if dy == 0 {
				wy = 1 - fy
			}
			for dx := 0; dx < 2; dx++ {
				wx := fx
				if dx == 0 {
					wx = 1 - fx
				}
				i := v.index(x0+dx, y0+dy, z0+dz)
				if v.W[i] <= 0 {
					return 0, false
				}
				acc += float64(v.D[i]) * wx * wy * wz
			}
		}
	}
	return acc, true
}

// SampleRelaxed samples the TSDF at p tolerating partially observed
// neighbourhoods: observed corners are combined with renormalised
// trilinear weights. This is what the ray-caster uses — with a narrow
// truncation band (mu on the order of the voxel size) the fully-observed
// shell around the surface can be thinner than one voxel, and the strict
// Interp would make the surface invisible. ok is false when the observed
// corner weight mass is too small to trust.
func (v *Volume) SampleRelaxed(p math3.Vec3) (val float64, ok bool) {
	val, ok, _ = v.sample(p, 1/v.VoxelSize())
	return val, ok
}

// Bits of the outside mask sample returns: which faces of the
// interpolable box a sample lies beyond.
const (
	outXLow uint8 = 1 << iota
	outXHigh
	outYLow
	outYHigh
	outZLow
	outZHigh
)

// sample is SampleRelaxed for a caller that hoists inv = 1/VoxelSize()
// out of its loop. When p lies outside the interpolable box, out has a
// bit set for every face it lies beyond; out is 0 for a sample that
// failed only for lack of observed weight. The eight corners are
// unrolled in the order of the z, y, x loop nest, with the same weight
// products and the same accumulation order, so the result is bit for
// bit the looped sampler's.
//
// A cell whose eight free bits are all set returns 1 before any D or W
// is read. That is the interpolation's own result: each corner adds the
// same product w to acc (as 1.0·w, exact) and to wsum, in the same
// order, so acc == wsum, wsum ≈ 1 ≥ 0.25 and acc/wsum == 1.
func (v *Volume) sample(p math3.Vec3, inv float64) (val float64, ok bool, out uint8) {
	gx := (p.X-v.Origin.X)*inv - 0.5
	gy := (p.Y-v.Origin.Y)*inv - 0.5
	gz := (p.Z-v.Origin.Z)*inv - 0.5
	x0 := int(math.Floor(gx))
	y0 := int(math.Floor(gy))
	z0 := int(math.Floor(gz))
	r := v.Res
	if x0 < 0 || y0 < 0 || z0 < 0 || x0+1 >= r || y0+1 >= r || z0+1 >= r {
		return 0, false, outside(x0, r, outXLow, outXHigh) |
			outside(y0, r, outYLow, outYHigh) |
			outside(z0, r, outZLow, outZHigh)
	}
	k, q := z0*v.plane+y0*r+x0, v.plane
	if v.isFree(k) && v.isFree(k+1) && v.isFree(k+r) && v.isFree(k+r+1) &&
		v.isFree(k+q) && v.isFree(k+q+1) && v.isFree(k+q+r) && v.isFree(k+q+r+1) {
		return 1, true, 0
	}
	fx := gx - float64(x0)
	fy := gy - float64(y0)
	fz := gz - float64(z0)
	wx0, wy0, wz0 := 1-fx, 1-fy, 1-fz

	var acc, wsum float64
	i := (z0*r+y0)*r + x0
	if v.W[i] > 0 {
		w := wx0 * wy0 * wz0
		acc += float64(v.D[i]) * w
		wsum += w
	}
	if v.W[i+1] > 0 {
		w := fx * wy0 * wz0
		acc += float64(v.D[i+1]) * w
		wsum += w
	}
	i += r
	if v.W[i] > 0 {
		w := wx0 * fy * wz0
		acc += float64(v.D[i]) * w
		wsum += w
	}
	if v.W[i+1] > 0 {
		w := fx * fy * wz0
		acc += float64(v.D[i+1]) * w
		wsum += w
	}
	i += r*r - r
	if v.W[i] > 0 {
		w := wx0 * wy0 * fz
		acc += float64(v.D[i]) * w
		wsum += w
	}
	if v.W[i+1] > 0 {
		w := fx * wy0 * fz
		acc += float64(v.D[i+1]) * w
		wsum += w
	}
	i += r
	if v.W[i] > 0 {
		w := wx0 * fy * fz
		acc += float64(v.D[i]) * w
		wsum += w
	}
	if v.W[i+1] > 0 {
		w := fx * fy * fz
		acc += float64(v.D[i+1]) * w
		wsum += w
	}
	if wsum < 0.25 {
		return 0, false, 0
	}
	return acc / wsum, true, 0
}

// isFree reports whether free bit k is set.
func (v *Volume) isFree(k int) bool { return v.free[k>>6]>>(k&63)&1 != 0 }

// outside returns low when the cell index c0 starts below the box,
// high when its far corner c0+1 lies past the last voxel, and 0 when the
// cell fits on this axis.
func outside(c0, res int, low, high uint8) uint8 {
	switch {
	case c0 < 0:
		return low
	case c0+1 >= res:
		return high
	}
	return 0
}

// Gradient estimates the TSDF spatial gradient at p via central
// differences of trilinear samples; used for surface normals.
func (v *Volume) Gradient(p math3.Vec3) (math3.Vec3, bool) {
	h := v.VoxelSize()
	return v.gradient(p, h, 1/h)
}

// gradient is Gradient with the voxel size h and its inverse hoisted.
func (v *Volume) gradient(p math3.Vec3, h, inv float64) (math3.Vec3, bool) {
	xp, ok1, _ := v.sample(p.Add(math3.V3(h, 0, 0)), inv)
	xm, ok2, _ := v.sample(p.Sub(math3.V3(h, 0, 0)), inv)
	yp, ok3, _ := v.sample(p.Add(math3.V3(0, h, 0)), inv)
	ym, ok4, _ := v.sample(p.Sub(math3.V3(0, h, 0)), inv)
	zp, ok5, _ := v.sample(p.Add(math3.V3(0, 0, h)), inv)
	zm, ok6, _ := v.sample(p.Sub(math3.V3(0, 0, h)), inv)
	if !(ok1 && ok2 && ok3 && ok4 && ok5 && ok6) {
		return math3.Vec3{}, false
	}
	g := math3.V3(xp-xm, yp-ym, zp-zm)
	if g.Norm() < 1e-12 {
		return math3.Vec3{}, false
	}
	return g.Normalized(), true
}

// Integrate fuses one depth image into the volume.
//
// pose is camera-to-world; mu is the truncation band in metres; maxWeight
// caps the running average so the map can adapt to drift.
//
// Only voxels in the camera frustum can change, so each x-row is first
// clipped to the span of voxels that can project into the image (see
// rowSpan) and the per-voxel test runs inside that span only. The
// voxels before the span still advance the row's camera-frame point one
// step each, so every tested voxel sees the same point, and the result,
// bit for bit, as a pass over every voxel. The returned cost is that of
// the reference kernel, which visits all res³ voxels: it models the
// work KinectFusion does on the device, not the work this process
// skipped, and it is what makes volume resolution the paper's dominant
// performance parameter.
//
// Each written voxel's free bit is recomputed from its stored D and W,
// after the weight cap. A row's bits are gathered per word and each
// word is stored once; a z-slab owns whole words (see Volume.plane), so
// the parallel slabs never write the same word.
func (v *Volume) Integrate(depth *imgproc.DepthMap, pose math3.SE3, in camera.Intrinsics, mu float64, maxWeight float32) imgproc.Cost {
	if mu <= 0 {
		mu = v.VoxelSize() * 4
	}
	worldToCam := pose.Inverse()
	s := v.VoxelSize()
	// One x step moves the camera-frame point by a constant delta.
	dx := worldToCam.R.Col(0).Scale(s)

	parallel.For(v.Res, 0, func(zlo, zhi int) {
		for z := zlo; z < zhi; z++ {
			for y := 0; y < v.Res; y++ {
				base := v.Origin.Add(math3.V3(0.5*s, (float64(y)+0.5)*s, (float64(z)+0.5)*s))
				pc := worldToCam.Apply(base)
				xlo, xhi := rowSpan(pc, dx, in, v.Res)
				if xlo > xhi {
					continue
				}
				for x := 0; x < xlo; x++ {
					pc = pc.Add(dx)
				}
				row := z*v.plane + y*v.Res
				wi, word := -1, uint64(0) // the free-bit word being gathered
				for x := xlo; x <= xhi; x++ {
					if x > xlo {
						pc = pc.Add(dx)
					}
					if pc.Z <= 1e-6 {
						continue
					}
					u := in.Fx*pc.X/pc.Z + in.Cx
					vv := in.Fy*pc.Y/pc.Z + in.Cy
					ui := int(u + 0.5)
					vi := int(vv + 0.5)
					if ui < 0 || vi < 0 || ui >= in.Width || vi >= in.Height {
						continue
					}
					zm := depth.At(ui, vi)
					if zm <= 0 {
						continue
					}
					// Signed distance along the ray, projected on Z.
					sdfVal := float64(zm) - pc.Z
					if sdfVal < -mu {
						continue // behind the surface: occluded, skip
					}
					t := math3.Clamp(sdfVal/mu, -1, 1)
					i := (z*v.Res+y)*v.Res + x
					wOld := v.W[i]
					wNew := wOld + 1
					d := float32((float64(v.D[i])*float64(wOld) + t) / float64(wNew))
					if wNew > maxWeight {
						wNew = maxWeight
					}
					v.D[i], v.W[i] = d, wNew

					k := row + x
					if k>>6 != wi {
						if wi >= 0 {
							v.free[wi] = word
						}
						wi = k >> 6
						word = v.free[wi]
					}
					m := uint64(1) << (k & 63)
					if wNew > 0 && d == 1 {
						word |= m
					} else {
						word &^= m
					}
				}
				if wi >= 0 {
					v.free[wi] = word
				}
			}
		}
	})

	n := int64(v.Res) * int64(v.Res) * int64(v.Res)
	return imgproc.Cost{Ops: n * 14, Bytes: n * 10}
}

// rowSpan returns the voxels [lo, hi] of one x-row, whose camera-frame
// points are pc0 + x·dx, that can pass Integrate's per-voxel test; lo >
// hi when none can. A voxel passes only in front of the camera (Z > 0)
// and when its pixel u = Fx·X/Z + Cx rounds into [0, Width): int(u+0.5)
// truncates toward zero, so that is u in (-1.5, Width-0.5), and likewise
// for v. Multiplied through by Z > 0, each image edge becomes a linear
// inequality a + b·x > 0 along the row, as the near plane already is.
// Each edge is widened by one pixel and the resulting interval by one
// voxel, a margin far above the rounding the incremental point
// accumulation and these coefficients carry, so the span holds every
// voxel the per-voxel test can accept.
func rowSpan(pc0, dx math3.Vec3, in camera.Intrinsics, res int) (lo, hi int) {
	sp := span{lo: math.Inf(-1), hi: math.Inf(1)}
	sp.keep(pc0.Z, dx.Z)
	uLow, uHigh := in.Cx+2.5, float64(in.Width)+0.5-in.Cx
	sp.keep(in.Fx*pc0.X+uLow*pc0.Z, in.Fx*dx.X+uLow*dx.Z)
	sp.keep(uHigh*pc0.Z-in.Fx*pc0.X, uHigh*dx.Z-in.Fx*dx.X)
	vLow, vHigh := in.Cy+2.5, float64(in.Height)+0.5-in.Cy
	sp.keep(in.Fy*pc0.Y+vLow*pc0.Z, in.Fy*dx.Y+vLow*dx.Z)
	sp.keep(vHigh*pc0.Z-in.Fy*pc0.Y, vHigh*dx.Z-in.Fy*dx.Y)

	// Real x in (sp.lo, sp.hi), widened by one voxel each side.
	if !(sp.lo < float64(res)) || !(sp.hi > -1) {
		return 1, 0
	}
	lo, hi = 0, res-1
	if sp.lo > 0 {
		lo = int(sp.lo)
	}
	if sp.hi < float64(hi) {
		hi = int(math.Ceil(sp.hi))
	}
	return lo, hi
}

// span is an open interval of real x along a voxel row.
type span struct{ lo, hi float64 }

// keep narrows the span to the x with a + b·x > 0. A NaN coefficient
// leaves the span as it is.
func (s *span) keep(a, b float64) {
	switch {
	case b > 0:
		if r := -a / b; r > s.lo {
			s.lo = r
		}
	case b < 0:
		if r := -a / b; r < s.hi {
			s.hi = r
		}
	case b == 0 && a <= 0:
		s.lo, s.hi = math.Inf(1), math.Inf(-1)
	}
}
