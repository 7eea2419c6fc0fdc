package tsdf

import (
	"math"

	"slamgo/internal/camera"
	"slamgo/internal/imgproc"
	"slamgo/internal/math3"
	"slamgo/internal/parallel"
)

// RaycastResult holds the world-frame vertex and normal maps produced by
// ray-casting the volume, plus the kernel cost.
type RaycastResult struct {
	Vertices *imgproc.VertexMap
	Normals  *imgproc.NormalMap
	Cost     imgproc.Cost
	// pooled marks results whose maps came from the package buffer pool
	// (Raycast); Release only recycles those.
	pooled bool
}

// raycastPool recycles the output maps of the convenience Raycast entry
// point, so repeated standalone raycasts (benchmarks, mesh previews)
// reach the same steady-state zero-allocation behaviour as the
// pipeline's RaycastInto + imgproc.BufferPool pairing.
var raycastPool imgproc.BufferPool

// Release returns the result's maps to the raycast buffer pool and
// clears them, so releasing the same result twice is safe (only copies
// of the struct can defeat the latch — release through one variable).
// It is a no-op for results produced by RaycastInto, whose buffers
// belong to the caller. After Release the maps must not be read again.
func (r *RaycastResult) Release() {
	if !r.pooled {
		return
	}
	r.pooled = false
	raycastPool.PutVertex(r.Vertices)
	raycastPool.PutNormal(r.Normals)
	r.Vertices = nil
	r.Normals = nil
}

// Raycast extracts the implicit surface visible from the camera at pose
// (camera-to-world). It marches each pixel's ray with coarse steps while
// far from the surface (the TSDF magnitude bounds how far the surface can
// be) and refines the zero crossing by linear interpolation, exactly as
// KinectFusion's raycaster does.
//
// near and far clip the march range (metres); mu is the truncation band
// used during integration (sets the safe step length). The output maps
// come from a pooled allocator: call Release on the result when done
// with them to make follow-up raycasts allocation-free (skipping
// Release is safe — the maps simply fall back to the garbage
// collector).
func (v *Volume) Raycast(pose math3.SE3, in camera.Intrinsics, mu, near, far float64) RaycastResult {
	verts := raycastPool.Vertex(in.Width, in.Height)
	norms := raycastPool.Normal(in.Width, in.Height)
	res := v.RaycastInto(verts, norms, pose, in, mu, near, far)
	res.pooled = true
	return res
}

// RaycastInto is the allocation-free variant: it marches into
// caller-provided maps, which must be all-invalid (freshly allocated or
// drawn from an imgproc.BufferPool). Rays are marched in parallel with
// the per-worker step counts merged in a fixed chunk order, so the
// result is identical for any worker count.
func (v *Volume) RaycastInto(verts *imgproc.VertexMap, norms *imgproc.NormalMap, pose math3.SE3, in camera.Intrinsics, mu, near, far float64) RaycastResult {
	if mu <= 0 {
		mu = v.VoxelSize() * 4
	}
	h := v.VoxelSize()
	inv := 1 / h
	coarse := math.Max(0.75*mu, h)
	fine := h * 0.5

	steps := parallel.Reduce(in.Height, 0, func(ylo, yhi int) int64 {
		var localSteps int64
		for y := ylo; y < yhi; y++ {
			for x := 0; x < in.Width; x++ {
				dir := in.Ray(float64(x), float64(y))
				wdir := pose.ApplyDir(dir)
				hit, ok, n := v.marchRay(pose.T, wdir, coarse, fine, near, far, inv)
				localSteps += n
				if !ok {
					continue
				}
				p := pose.T.Add(wdir.Scale(hit))
				g, gok := v.gradient(p, h, inv)
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
			Ops:   steps * 30, // trilinear sample + advance per step
			Bytes: steps * 32,
		},
	}
}

// marchRay walks one ray and returns the refined hit distance. The third
// return value is the number of samples taken (for cost accounting).
//
// A sample outside the interpolable box on an axis the ray moves away
// from (or along which it does not move) ends the march early: each
// coordinate of o + d·t, and so its voxel index, is monotone in t under
// IEEE rounding, so every later sample would fail the same way. The
// remaining steps are still counted, with the same t += coarse
// recurrence a full march would take, so the step count and the cost it
// feeds are those of a march to far.
func (v *Volume) marchRay(o, d math3.Vec3, coarse, fine, near, far, inv float64) (float64, bool, int64) {
	// Outside bits that can never clear as t grows.
	var away uint8
	if d.X <= 0 {
		away |= outXLow
	}
	if d.X >= 0 {
		away |= outXHigh
	}
	if d.Y <= 0 {
		away |= outYLow
	}
	if d.Y >= 0 {
		away |= outYHigh
	}
	if d.Z <= 0 {
		away |= outZLow
	}
	if d.Z >= 0 {
		away |= outZHigh
	}

	t := near
	var steps int64
	prevT := t
	prevVal := math.NaN()
	for t < far {
		steps++
		p := o.Add(d.Scale(t))
		val, ok, out := v.sample(p, inv)
		if !ok {
			if out&away != 0 {
				for t += coarse; t < far; t += coarse {
					steps++
				}
				return 0, false, steps
			}
			// Outside observed space: step coarsely.
			prevVal = math.NaN()
			prevT = t
			t += coarse
			continue
		}
		if val <= 0 {
			// Crossed the surface. Refine between prevT and t.
			if !math.IsNaN(prevVal) && prevVal > 0 {
				// Linear interpolation of the zero crossing.
				frac := prevVal / (prevVal - val)
				return prevT + frac*(t-prevT), true, steps
			}
			return t, true, steps
		}
		prevVal = val
		prevT = t
		// Safe skip: the surface is at least val·mu away, but never step
		// below the fine step near the surface.
		step := val * coarse / 0.75
		if step < fine {
			step = fine
		}
		t += step
	}
	return 0, false, steps
}
