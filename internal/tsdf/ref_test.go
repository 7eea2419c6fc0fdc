package tsdf

import (
	"math"

	"slamgo/internal/camera"
	"slamgo/internal/imgproc"
	"slamgo/internal/math3"
	"slamgo/internal/parallel"
)

// The reference kernels below are the straightforward versions the
// production kernels must reproduce bit for bit: refIntegrate tests every
// voxel of the volume, and refMarchRay samples with the looped trilinear
// sampler until the ray leaves the march range. kernel_identity_test.go
// compares the two families voxel for voxel and pixel for pixel.

// refIntegrate fuses one depth image by visiting every voxel.
func (v *Volume) refIntegrate(depth *imgproc.DepthMap, pose math3.SE3, in camera.Intrinsics, mu float64, maxWeight float32) imgproc.Cost {
	if mu <= 0 {
		mu = v.VoxelSize() * 4
	}
	worldToCam := pose.Inverse()
	s := v.VoxelSize()

	parallel.For(v.Res, 0, func(zlo, zhi int) {
		for z := zlo; z < zhi; z++ {
			for y := 0; y < v.Res; y++ {
				base := v.Origin.Add(math3.V3(0.5*s, (float64(y)+0.5)*s, (float64(z)+0.5)*s))
				pc := worldToCam.Apply(base)
				dx := worldToCam.R.Col(0).Scale(s)
				for x := 0; x < v.Res; x++ {
					if x > 0 {
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
					sdfVal := float64(zm) - pc.Z
					if sdfVal < -mu {
						continue
					}
					t := math3.Clamp(sdfVal/mu, -1, 1)
					i := (z*v.Res+y)*v.Res + x
					wOld := v.W[i]
					wNew := wOld + 1
					v.D[i] = float32((float64(v.D[i])*float64(wOld) + t) / float64(wNew))
					if wNew > maxWeight {
						wNew = maxWeight
					}
					v.W[i] = wNew
				}
			}
		}
	})

	n := int64(v.Res) * int64(v.Res) * int64(v.Res)
	return imgproc.Cost{Ops: n * 14, Bytes: n * 10}
}

// refSampleRelaxed is the looped trilinear sampler over observed corners.
func (v *Volume) refSampleRelaxed(p math3.Vec3) (val float64, ok bool) {
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

	var acc, wsum float64
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
					continue
				}
				w := wx * wy * wz
				acc += float64(v.D[i]) * w
				wsum += w
			}
		}
	}
	if wsum < 0.25 {
		return 0, false
	}
	return acc / wsum, true
}

// refGradient is Gradient over refSampleRelaxed.
func (v *Volume) refGradient(p math3.Vec3) (math3.Vec3, bool) {
	h := v.VoxelSize()
	xp, ok1 := v.refSampleRelaxed(p.Add(math3.V3(h, 0, 0)))
	xm, ok2 := v.refSampleRelaxed(p.Sub(math3.V3(h, 0, 0)))
	yp, ok3 := v.refSampleRelaxed(p.Add(math3.V3(0, h, 0)))
	ym, ok4 := v.refSampleRelaxed(p.Sub(math3.V3(0, h, 0)))
	zp, ok5 := v.refSampleRelaxed(p.Add(math3.V3(0, 0, h)))
	zm, ok6 := v.refSampleRelaxed(p.Sub(math3.V3(0, 0, h)))
	if !(ok1 && ok2 && ok3 && ok4 && ok5 && ok6) {
		return math3.Vec3{}, false
	}
	g := math3.V3(xp-xm, yp-ym, zp-zm)
	if g.Norm() < 1e-12 {
		return math3.Vec3{}, false
	}
	return g.Normalized(), true
}

// refRaycastInto marches every pixel's ray with refMarchRay.
func (v *Volume) refRaycastInto(verts *imgproc.VertexMap, norms *imgproc.NormalMap, pose math3.SE3, in camera.Intrinsics, mu, near, far float64) RaycastResult {
	if mu <= 0 {
		mu = v.VoxelSize() * 4
	}
	coarse := math.Max(0.75*mu, v.VoxelSize())
	fine := v.VoxelSize() * 0.5

	steps := parallel.Reduce(in.Height, 0, func(ylo, yhi int) int64 {
		var localSteps int64
		for y := ylo; y < yhi; y++ {
			for x := 0; x < in.Width; x++ {
				dir := in.Ray(float64(x), float64(y))
				wdir := pose.ApplyDir(dir)
				hit, ok, n := v.refMarchRay(pose.T, wdir, coarse, fine, near, far)
				localSteps += n
				if !ok {
					continue
				}
				p := pose.T.Add(wdir.Scale(hit))
				g, gok := v.refGradient(p)
				if !gok {
					continue
				}
				verts.Set(x, y, p)
				norms.Set(x, y, g)
			}
		}
		return localSteps
	}, func(acc *int64, p int64) { *acc += p })

	return RaycastResult{
		Vertices: verts,
		Normals:  norms,
		Cost: imgproc.Cost{
			Ops:   steps * 30,
			Bytes: steps * 32,
		},
	}
}

// refMarchRay samples until the ray leaves [near, far) or crosses the
// surface.
func (v *Volume) refMarchRay(o, d math3.Vec3, coarse, fine, near, far float64) (float64, bool, int64) {
	t := near
	var steps int64
	prevT := t
	prevVal := math.NaN()
	for t < far {
		steps++
		p := o.Add(d.Scale(t))
		val, ok := v.refSampleRelaxed(p)
		if !ok {
			prevVal = math.NaN()
			prevT = t
			t += coarse
			continue
		}
		if val <= 0 {
			if !math.IsNaN(prevVal) && prevVal > 0 {
				frac := prevVal / (prevVal - val)
				return prevT + frac*(t-prevT), true, steps
			}
			return t, true, steps
		}
		prevVal = val
		prevT = t
		step := val * coarse / 0.75
		if step < fine {
			step = fine
		}
		t += step
	}
	return 0, false, steps
}
