package icp

import (
	"math"
	"testing"

	"slamgo/internal/camera"
	"slamgo/internal/imgproc"
	"slamgo/internal/math3"
	"slamgo/internal/sdf"
	"slamgo/internal/synth"
)

// buildMaps renders the SimpleRoom scene from a pose and converts the
// depth into camera-frame vertex/normal maps.
func buildMaps(t *testing.T, pose math3.SE3, in camera.Intrinsics) (*imgproc.VertexMap, *imgproc.NormalMap) {
	t.Helper()
	r := synth.NewRenderer(sdf.SimpleRoom())
	depth := r.RenderDepth(pose, in)
	if depth.ValidFraction() < 0.8 {
		t.Fatalf("scene mostly invisible: %v", depth.ValidFraction())
	}
	vm, _ := imgproc.DepthToVertexMap(depth, in.BackProject)
	nm, _ := imgproc.VertexToNormalMap(vm)
	return vm, nm
}

// toWorld transforms camera-frame maps into world-frame reference maps.
func toWorld(vm *imgproc.VertexMap, nm *imgproc.NormalMap, pose math3.SE3) (*imgproc.VertexMap, *imgproc.NormalMap) {
	wv := imgproc.NewVertexMap(vm.Width, vm.Height)
	wn := imgproc.NewNormalMap(nm.Width, nm.Height)
	for y := 0; y < vm.Height; y++ {
		for x := 0; x < vm.Width; x++ {
			if p, ok := vm.At(x, y); ok {
				wv.Set(x, y, pose.Apply(p))
			}
			if n, ok := nm.At(x, y); ok {
				wn.Set(x, y, pose.ApplyDir(n))
			}
		}
	}
	return wv, wn
}

func testPose() math3.SE3 {
	return synth.LookAt(math3.V3(1.0, 1.2, 1.2), math3.V3(-0.1, 0.4, -0.7))
}

func TestSolveIdentityStaysPut(t *testing.T) {
	in := camera.Kinect640().ScaledTo(80, 60)
	pose := testPose()
	vm, nm := buildMaps(t, pose, in)
	wv, wn := toWorld(vm, nm, pose)

	ref := Reference{Vertices: wv, Normals: wn, Pose: pose, Intr: in}
	frame := Frame{Vertices: vm, Normals: nm}
	res := Solve(ref, frame, pose, DefaultParams())

	if !res.Converged {
		t.Fatalf("identity solve did not converge: %+v", res)
	}
	if res.RMSE > 1e-4 {
		t.Fatalf("identity RMSE %v", res.RMSE)
	}
	rel := pose.Inverse().Mul(res.Pose)
	if rel.TranslationNorm() > 1e-5 || rel.RotationAngle() > 1e-5 {
		t.Fatalf("identity solve moved the pose: %v", rel)
	}
	if res.Cost.Ops <= 0 {
		t.Fatal("no cost recorded")
	}
}

func TestSolveRecoversSmallOffset(t *testing.T) {
	in := camera.Kinect640().ScaledTo(160, 120)
	pose := testPose()
	vm, nm := buildMaps(t, pose, in)
	wv, wn := toWorld(vm, nm, pose)

	// Perturb the initial estimate by a couple of centimetres + ~1.5°.
	perturb := math3.ExpSE3([6]float64{0.02, -0.015, 0.01, 0.015, -0.01, 0.02})
	init := perturb.Mul(pose)

	ref := Reference{Vertices: wv, Normals: wn, Pose: pose, Intr: in}
	frame := Frame{Vertices: vm, Normals: nm}
	p := DefaultParams()
	p.MaxIterations = 20
	res := Solve(ref, frame, init, p)

	rel := pose.Inverse().Mul(res.Pose)
	if rel.TranslationNorm() > 5e-3 {
		t.Fatalf("translation error %v m after ICP (res=%+v)", rel.TranslationNorm(), res)
	}
	if rel.RotationAngle() > 0.01 {
		t.Fatalf("rotation error %v rad after ICP", rel.RotationAngle())
	}
	if res.Inliers < 1000 {
		t.Fatalf("too few inliers: %d", res.Inliers)
	}
}

func TestSolveImprovesWithIterations(t *testing.T) {
	in := camera.Kinect640().ScaledTo(80, 60)
	pose := testPose()
	vm, nm := buildMaps(t, pose, in)
	wv, wn := toWorld(vm, nm, pose)
	perturb := math3.ExpSE3([6]float64{0.03, 0, -0.02, 0, 0.02, 0})
	init := perturb.Mul(pose)

	ref := Reference{Vertices: wv, Normals: wn, Pose: pose, Intr: in}
	frame := Frame{Vertices: vm, Normals: nm}

	errAfter := func(iters int) float64 {
		p := DefaultParams()
		p.MaxIterations = iters
		p.ConvergenceThreshold = 0 // force all iterations
		res := Solve(ref, frame, init, p)
		return pose.Inverse().Mul(res.Pose).TranslationNorm()
	}
	e1, e10 := errAfter(1), errAfter(10)
	if e10 >= e1 {
		t.Fatalf("more iterations did not help: e1=%v e10=%v", e1, e10)
	}
}

func TestSolveFailsOnEmptyFrame(t *testing.T) {
	in := camera.Kinect640().ScaledTo(40, 30)
	pose := testPose()
	vm, nm := buildMaps(t, pose, in)
	wv, wn := toWorld(vm, nm, pose)
	ref := Reference{Vertices: wv, Normals: wn, Pose: pose, Intr: in}
	empty := Frame{
		Vertices: imgproc.NewVertexMap(40, 30),
		Normals:  imgproc.NewNormalMap(40, 30),
	}
	res := Solve(ref, empty, pose, DefaultParams())
	if !math.IsInf(res.RMSE, 1) {
		t.Fatalf("empty frame should fail tracking: %+v", res)
	}
	if res.Inliers != 0 {
		t.Fatalf("inliers on empty frame: %d", res.Inliers)
	}
}

func TestSolveRejectsFarCorrespondences(t *testing.T) {
	in := camera.Kinect640().ScaledTo(80, 60)
	pose := testPose()
	vm, nm := buildMaps(t, pose, in)
	wv, wn := toWorld(vm, nm, pose)

	// Translate the initial guess by far more than the distance
	// threshold. Correspondences sliding along large planes can survive
	// the Euclidean gate, but the inlier count must collapse relative to
	// a well-initialised solve.
	ref := Reference{Vertices: wv, Normals: wn, Pose: pose, Intr: in}
	p := DefaultParams()
	p.DistThreshold = 0.05
	p.MaxIterations = 1
	p.ConvergenceThreshold = 0
	good := Solve(ref, Frame{Vertices: vm, Normals: nm}, pose, p)

	far := math3.SE3{R: math3.Identity3(), T: math3.V3(1.0, 0, 0)}
	bad := Solve(ref, Frame{Vertices: vm, Normals: nm}, far.Mul(pose), p)
	if bad.Inliers*2 > good.Inliers {
		t.Fatalf("distance gate ineffective: %d inliers far vs %d aligned",
			bad.Inliers, good.Inliers)
	}
}

func TestDefaultParamsSane(t *testing.T) {
	p := DefaultParams()
	if p.MaxIterations <= 0 || p.DistThreshold <= 0 || p.ConvergenceThreshold <= 0 {
		t.Fatalf("bad defaults: %+v", p)
	}
}

// TestSolverMatchesSolve reuses one Solver across solves at two image
// sizes (so its scratch is grown and then reused) and demands the
// package-level Solve's result bit for bit.
func TestSolverMatchesSolve(t *testing.T) {
	perturb := math3.ExpSE3([6]float64{0.02, -0.015, 0.01, 0.015, -0.01, 0.02})
	var s Solver
	for _, size := range [][2]int{{160, 120}, {40, 30}, {160, 120}} {
		in := camera.Kinect640().ScaledTo(size[0], size[1])
		pose := testPose()
		vm, nm := buildMaps(t, pose, in)
		wv, wn := toWorld(vm, nm, pose)
		ref := Reference{Vertices: wv, Normals: wn, Pose: pose, Intr: in}
		frame := Frame{Vertices: vm, Normals: nm}
		for _, pointToPoint := range []bool{false, true} {
			p := DefaultParams()
			p.PointToPoint = pointToPoint
			want := Solve(ref, frame, perturb.Mul(pose), p)
			if got := s.Solve(ref, frame, perturb.Mul(pose), p); got != want {
				t.Fatalf("%dx%d point-to-point=%v: Solver gave %+v, Solve %+v", size[0], size[1], pointToPoint, got, want)
			}
		}
	}
}
