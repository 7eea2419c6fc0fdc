// Package icp implements the projective-data-association point-to-plane
// iterative-closest-point tracker used by KinectFusion to register each
// incoming depth frame against the ray-cast model surface.
//
// The solver minimises Σ ((T·p - q)·n)² over small rigid updates T=exp(ξ),
// where p are points from the current frame, q/n are the model vertex and
// normal found by projecting T·p into the reference camera. Residuals are
// gated by distance and normal-angle thresholds, and the normal equations
// are accumulated in parallel.
package icp

import (
	"math"

	"slamgo/internal/camera"
	"slamgo/internal/imgproc"
	"slamgo/internal/math3"
	"slamgo/internal/parallel"
)

// Params controls one ICP solve.
type Params struct {
	// MaxIterations bounds the Gauss-Newton iterations.
	MaxIterations int
	// ConvergenceThreshold stops iterating when the update twist norm
	// falls below it (the paper's "ICP threshold" DSE parameter).
	ConvergenceThreshold float64
	// DistThreshold rejects correspondences farther apart than this
	// (metres).
	DistThreshold float64
	// NormalThreshold rejects correspondences whose normals disagree by
	// more than this angle (radians).
	NormalThreshold float64
	// Damping is added to the normal-equation diagonal (Levenberg).
	Damping float64
	// PointToPoint switches the residual from point-to-plane (the
	// KinectFusion formulation) to classic point-to-point — the ablation
	// baseline: on indoor scenes dominated by planes it converges
	// markedly slower because sliding along a plane is penalised.
	PointToPoint bool
}

// DefaultParams mirrors KinectFusion's tracker settings.
func DefaultParams() Params {
	return Params{
		MaxIterations:        10,
		ConvergenceThreshold: 1e-5,
		DistThreshold:        0.1,
		NormalThreshold:      0.8,
		Damping:              1e-6,
	}
}

// Reference is the model side of the registration: world-frame vertex and
// normal maps ray-cast from the volume at refPose (camera-to-world), with
// the intrinsics used to project correspondences.
type Reference struct {
	Vertices *imgproc.VertexMap
	Normals  *imgproc.NormalMap
	Pose     math3.SE3
	Intr     camera.Intrinsics
}

// Frame is the data side: camera-frame vertex and normal maps of the
// incoming depth image.
type Frame struct {
	Vertices *imgproc.VertexMap
	Normals  *imgproc.NormalMap
}

// Result reports the outcome of a Solve.
type Result struct {
	// Pose is the refined camera-to-world transform of the frame.
	Pose math3.SE3
	// Iterations actually executed.
	Iterations int
	// Inliers is the correspondence count of the final iteration.
	Inliers int
	// RMSE is the final root-mean-square point-to-plane residual (metres).
	RMSE float64
	// Converged records whether the update dropped below the threshold.
	Converged bool
	// Cost accumulates the arithmetic work across all iterations.
	Cost imgproc.Cost
}

// Solve registers frame against ref starting from initPose
// (camera-to-world estimate for the frame).
func Solve(ref Reference, frame Frame, initPose math3.SE3, p Params) Result {
	var s Solver
	return s.Solve(ref, frame, initPose, p)
}

// Solver is Solve with scratch kept between calls: a tracker that
// solves every frame owns one and allocates the per-chunk partial sums
// of its normal equations once, not on every iteration. The zero value
// is ready. A Solver must not be used by two goroutines at once.
type Solver struct {
	partials []partial
}

// Solve is the package-level Solve on s's scratch; its result is bit
// for bit the same.
func (s *Solver) Solve(ref Reference, frame Frame, initPose math3.SE3, p Params) Result {
	pose := initPose
	res := Result{Pose: pose}
	if p.MaxIterations < 1 {
		p.MaxIterations = 1
	}

	worldToRef := ref.Pose.Inverse()
	for it := 0; it < p.MaxIterations; it++ {
		sys, cost := s.accumulate(ref, frame, pose, worldToRef, p)
		res.Cost.Add(cost)
		res.Iterations = it + 1
		res.Inliers = sys.Count
		if p.PointToPoint {
			// Point-to-point contributes three rows per correspondence.
			res.Inliers = sys.Count / 3
		}
		if sys.Count < 6 {
			// Not enough constraints: give up, tracking has failed.
			res.RMSE = math.Inf(1)
			return res
		}
		res.RMSE = math.Sqrt(sys.Error / float64(sys.Count))

		xi, err := sys.Solve(p.Damping)
		if err != nil {
			return res
		}
		update := math3.ExpSE3(xi)
		pose = update.Mul(pose).Orthonormalized()
		res.Pose = pose

		norm := 0.0
		for _, v := range xi {
			norm += v * v
		}
		if math.Sqrt(norm) < p.ConvergenceThreshold {
			res.Converged = true
			break
		}
	}
	return res
}

// partial is one chunk's share of the normal equations.
type partial struct {
	sys     math3.Sym6
	visited int64
}

// accumulate builds the normal equations for the current pose estimate,
// sharding image rows across CPUs. Chunk boundaries and the merge order
// of the per-chunk partial sums depend only on the image height, so the
// accumulated system — and therefore the solved pose — is bit-identical
// for any worker count.
func (s *Solver) accumulate(ref Reference, frame Frame, pose math3.SE3, worldToRef math3.SE3, p Params) (*math3.Sym6, imgproc.Cost) {
	h := frame.Vertices.Height
	w := frame.Vertices.Width
	cosThresh := math.Cos(p.NormalThreshold)

	total := parallel.ReduceInto(&s.partials, h, 0, func(ylo, yhi int) partial {
		var pt partial
		sys := &pt.sys
		for y := ylo; y < yhi; y++ {
			for x := 0; x < w; x++ {
				pt.visited++
				pv, ok := frame.Vertices.At(x, y)
				if !ok {
					continue
				}
				nv, ok := frame.Normals.At(x, y)
				if !ok {
					continue
				}
				// Current estimate: frame point/normal in world.
				pw := pose.Apply(pv)
				nw := pose.ApplyDir(nv)

				// Project into the reference camera.
				pr := worldToRef.Apply(pw)
				uv, vis := ref.Intr.Project(pr)
				if !vis {
					continue
				}
				u := int(uv.X + 0.5)
				v := int(uv.Y + 0.5)
				if u < 0 || v < 0 || u >= ref.Vertices.Width || v >= ref.Vertices.Height {
					continue
				}
				qw, ok := ref.Vertices.At(u, v)
				if !ok {
					continue
				}
				qn, ok := ref.Normals.At(u, v)
				if !ok {
					continue
				}
				diff := qw.Sub(pw)
				if diff.Norm() > p.DistThreshold {
					continue
				}
				if nw.Dot(qn) < cosThresh {
					continue
				}
				if p.PointToPoint {
					// Three residual rows, one per component of
					// e = q - T·p, with ∂(T·p)/∂ξ = [I | -[T·p]ₓ].
					sys.AddRow([6]float64{1, 0, 0, 0, pw.Z, -pw.Y}, diff.X)
					sys.AddRow([6]float64{0, 1, 0, -pw.Z, 0, pw.X}, diff.Y)
					sys.AddRow([6]float64{0, 0, 1, pw.Y, -pw.X, 0}, diff.Z)
					continue
				}
				// Point-to-plane residual and Jacobian w.r.t. the
				// twist (v, ω) applied on the left of the pose.
				e := diff.Dot(qn)
				cross := pw.Cross(qn)
				row := [6]float64{qn.X, qn.Y, qn.Z, cross.X, cross.Y, cross.Z}
				sys.AddRow(row, e)
			}
		}
		return pt
	}, func(acc *partial, o partial) {
		acc.sys.Merge(&o.sys)
		acc.visited += o.visited
	})

	return &total.sys, imgproc.Cost{
		Ops:   total.visited*40 + int64(total.sys.Count)*60,
		Bytes: total.visited * 56,
	}
}
