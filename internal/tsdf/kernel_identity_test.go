package tsdf

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"slamgo/internal/camera"
	"slamgo/internal/dataset"
	"slamgo/internal/imgproc"
	"slamgo/internal/math3"
)

// kernelFixture is the lr_kt0 sequence the DSE's quick scale runs on,
// with its depth frames downsampled to one compute size ratio.
type kernelFixture struct {
	in     camera.Intrinsics
	depths []*imgproc.DepthMap
	gt     []math3.SE3
}

// fixtureSequence is the lr_kt0 sequence the kernel tests run on.
func fixtureSequence(t *testing.T) *dataset.MemorySequence {
	t.Helper()
	seq, err := dataset.LivingRoomKT(0, dataset.PresetOptions{
		Width: 160, Height: 120, Frames: 16, FPS: 30, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	return seq
}

func newKernelFixture(t *testing.T, seq *dataset.MemorySequence, ratio int) kernelFixture {
	t.Helper()
	sensor := seq.Intrinsics()
	fx := kernelFixture{in: sensor.ScaledTo(sensor.Width/ratio, sensor.Height/ratio)}
	for i := 0; i < seq.Len(); i++ {
		f, err := seq.Frame(i)
		if err != nil {
			t.Fatal(err)
		}
		d := f.Depth
		for r := ratio; r > 1; r /= 2 {
			d, _ = imgproc.HalfSampleDepth(d, 0.1)
		}
		fx.depths = append(fx.depths, d)
		fx.gt = append(fx.gt, f.GroundTruth)
	}
	return fx
}

// lookAt returns a camera-to-world pose at eye whose optical axis (+Z)
// points along dir.
func lookAt(eye, dir math3.Vec3) math3.SE3 {
	z := dir.Normalized()
	up := math3.V3(0, 1, 0)
	if math.Abs(z.Dot(up)) > 0.9 {
		up = math3.V3(1, 0, 0)
	}
	x := up.Cross(z).Normalized()
	y := z.Cross(x)
	return math3.SE3{R: math3.Mat3FromCols(x, y, z), T: eye}
}

// kernelPoses returns the poses the kernels are compared at: ground
// truth, the identity (whose voxel rows run parallel to an image edge)
// and random poses inside, outside and behind the volume. An outside
// pose looks at the volume, so its rays enter the box after starting
// outside it; a behind pose looks away, so no voxel is in view.
func kernelPoses(rng *rand.Rand, fx kernelFixture, centre math3.Vec3, size float64) []math3.SE3 {
	jitter := func(s float64) math3.Vec3 {
		return math3.V3(rng.Float64()-0.5, rng.Float64()-0.5, rng.Float64()-0.5).Scale(s)
	}
	randomRotation := func() math3.Mat3 {
		axis := jitter(2)
		if axis.Norm() < 1e-3 {
			axis = math3.V3(0, 1, 0)
		}
		return math3.QuatFromAxisAngle(axis.Normalized(), rng.Float64()*2*math.Pi).Mat3()
	}
	n := len(fx.gt)
	poses := []math3.SE3{fx.gt[0], fx.gt[n/2], fx.gt[n-1], math3.SE3Identity()}
	// Inside the volume, any orientation.
	poses = append(poses, math3.SE3{R: randomRotation(), T: centre.Add(jitter(0.8 * size))})
	// Outside the volume, looking roughly at it.
	dir := jitter(2).Normalized()
	eye := centre.Add(dir.Scale(size * (0.8 + rng.Float64())))
	poses = append(poses, lookAt(eye, centre.Sub(eye).Add(jitter(1))))
	// Outside and behind: looking away from the volume.
	poses = append(poses, lookAt(eye, eye.Sub(centre).Add(jitter(0.5))))
	return poses
}

func sameVolume(t *testing.T, where string, a, b *Volume) {
	t.Helper()
	for i := range a.D {
		if math.Float32bits(a.D[i]) != math.Float32bits(b.D[i]) ||
			math.Float32bits(a.W[i]) != math.Float32bits(b.W[i]) {
			x, y, z := i%a.Res, (i/a.Res)%a.Res, i/(a.Res*a.Res)
			t.Fatalf("%s: voxel (%d,%d,%d) is (%v,%v), reference (%v,%v)",
				where, x, y, z, a.D[i], a.W[i], b.D[i], b.W[i])
		}
	}
}

func sameVec(a, b math3.Vec3) bool {
	return math.Float64bits(a.X) == math.Float64bits(b.X) &&
		math.Float64bits(a.Y) == math.Float64bits(b.Y) &&
		math.Float64bits(a.Z) == math.Float64bits(b.Z)
}

func sameMap(t *testing.T, where string, a, b *imgproc.VertexMap) {
	t.Helper()
	for i := range a.Mask {
		if a.Mask[i] != b.Mask[i] || !sameVec(a.Points[i], b.Points[i]) {
			t.Fatalf("%s: pixel (%d,%d) is %v %v, reference %v %v",
				where, i%a.Width, i/a.Width, a.Mask[i], a.Points[i], b.Mask[i], b.Points[i])
		}
	}
}

// TestKernelsMatchReference pins the frustum-clipped Integrate and the
// early-exit raycast to the reference kernels of ref_test.go: every
// voxel's D and W bits, every vertex and normal bit and both kernel
// costs must agree, across the DSE's volume resolutions, compute size
// ratios and truncation bands.
func TestKernelsMatchReference(t *testing.T) {
	seq := fixtureSequence(t)
	cases := []struct {
		res, ratio int
		mu         float64
	}{
		{64, 1, 0.025}, {64, 8, 0.3}, {96, 2, 0.3}, {96, 4, 0.05},
		{128, 1, 0.1}, {128, 8, 0.025}, {192, 2, 0.2}, {192, 4, 0.1},
		{256, 2, 0.1}, {256, 8, 0.05},
	}
	if testing.Short() {
		cases = cases[:4]
	}
	fixtures := map[int]kernelFixture{}
	const size = 5.6
	centre := math3.V3(0, 1.3, 0)
	origin := centre.Sub(math3.Splat3(size / 2))
	for ci, c := range cases {
		fx, ok := fixtures[c.ratio]
		if !ok {
			fx = newKernelFixture(t, seq, c.ratio)
			fixtures[c.ratio] = fx
		}
		rng := rand.New(rand.NewSource(int64(ci + 1)))
		poses := kernelPoses(rng, fx, centre, size)
		got, want := New(c.res, size, origin), New(c.res, size, origin)
		for pi, pose := range poses {
			depth := fx.depths[(pi*5)%len(fx.depths)]
			gc := got.Integrate(depth, pose, fx.in, c.mu, 100)
			wc := want.refIntegrate(depth, pose, fx.in, c.mu, 100)
			where := fmt.Sprintf("integrate %d³ ratio %d mu %g pose %d", c.res, c.ratio, c.mu, pi)
			if gc != wc {
				t.Fatalf("%s: cost %+v, reference %+v", where, gc, wc)
			}
			sameVolume(t, where, got, want)
		}
		for pi, pose := range poses {
			gv, gn := imgproc.NewVertexMap(fx.in.Width, fx.in.Height), imgproc.NewNormalMap(fx.in.Width, fx.in.Height)
			wv, wn := imgproc.NewVertexMap(fx.in.Width, fx.in.Height), imgproc.NewNormalMap(fx.in.Width, fx.in.Height)
			near, far := 0.1, size*1.8
			gr := got.RaycastInto(gv, gn, pose, fx.in, c.mu, near, far)
			wr := want.refRaycastInto(wv, wn, pose, fx.in, c.mu, near, far)
			where := fmt.Sprintf("raycast %d³ ratio %d mu %g pose %d", c.res, c.ratio, c.mu, pi)
			if gr.Cost != wr.Cost {
				t.Fatalf("%s: cost %+v, reference %+v", where, gr.Cost, wr.Cost)
			}
			sameMap(t, where+" vertices", gv, wv)
			sameMap(t, where+" normals", gn, wn)
		}
		// Point samples and gradients anywhere in and around the box.
		for i := 0; i < 20000; i++ {
			p := centre.Add(math3.V3(rng.Float64()-0.5, rng.Float64()-0.5, rng.Float64()-0.5).Scale(1.2 * size))
			gv, gok := got.SampleRelaxed(p)
			wv, wok := want.refSampleRelaxed(p)
			if gok != wok || math.Float64bits(gv) != math.Float64bits(wv) {
				t.Fatalf("SampleRelaxed(%v) = %v %v, reference %v %v", p, gv, gok, wv, wok)
			}
			gg, ggok := got.Gradient(p)
			wg, wgok := want.refGradient(p)
			if ggok != wgok || !sameVec(gg, wg) {
				t.Fatalf("Gradient(%v) = %v %v, reference %v %v", p, gg, ggok, wg, wgok)
			}
		}
	}
}

// TestRowSpanHoldsEveryAcceptedVoxel checks the span's defining property
// directly, over many random rows: every voxel the per-voxel projection
// test accepts lies inside the span. Random poses around the volume make
// many rows cross an image edge or pass behind the camera, and every
// fourth pose keeps the identity rotation, whose rows run parallel to an
// image edge.
func TestRowSpanHoldsEveryAcceptedVoxel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sensor := camera.Kinect640()
	for trial := 0; trial < 4000; trial++ {
		ratio := 1 << rng.Intn(6)
		in := sensor.ScaledTo(sensor.Width/ratio, sensor.Height/ratio)
		res := 16 + rng.Intn(240)
		s := 5.6 / float64(res)
		axis := math3.V3(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()).Normalized()
		pose := math3.SE3{
			R: math3.QuatFromAxisAngle(axis, rng.Float64()*2*math.Pi).Mat3(),
			T: math3.V3(rng.Float64()-0.5, rng.Float64()-0.5, rng.Float64()-0.5).Scale(8),
		}
		if trial%4 == 0 {
			pose.R = math3.Identity3()
		}
		worldToCam := pose.Inverse()
		dx := worldToCam.R.Col(0).Scale(s)
		for row := 0; row < 8; row++ {
			base := math3.V3(-2.8+0.5*s, -2.8+(float64(rng.Intn(res))+0.5)*s, -2.8+(float64(rng.Intn(res))+0.5)*s)
			pc0 := worldToCam.Apply(base)
			lo, hi := rowSpan(pc0, dx, in, res)
			pc := pc0
			for x := 0; x < res; x++ {
				if x > 0 {
					pc = pc.Add(dx)
				}
				if pc.Z <= 1e-6 {
					continue
				}
				ui := int(in.Fx*pc.X/pc.Z + in.Cx + 0.5)
				vi := int(in.Fy*pc.Y/pc.Z + in.Cy + 0.5)
				if ui < 0 || vi < 0 || ui >= in.Width || vi >= in.Height {
					continue
				}
				if x < lo || x > hi {
					t.Fatalf("trial %d: voxel %d projects to (%d,%d) but the span is [%d,%d]", trial, x, ui, vi, lo, hi)
				}
			}
		}
	}
}

// TestRaycastExitsOnlyWhenLeaving pins the early exit's direction test:
// a ray that starts outside the box and moves into it must still find
// the surface, while one that moves away stops sampling and still
// reports the full step count.
func TestRaycastExitsOnlyWhenLeaving(t *testing.T) {
	in := testCam()
	v := testVolume(32)
	v.Integrate(flatWall(in, 2.0), math3.SE3Identity(), in, 0.2, 100)
	h := v.VoxelSize()
	inv := 1 / h
	coarse, fine := math.Max(0.75*0.2, h), 0.5*h
	rays := []struct{ o, d math3.Vec3 }{
		{math3.V3(0, 0, -3), math3.V3(0, 0, 1)},    // enters the box through z
		{math3.V3(0, 0, 1.5), math3.V3(0, 0, -1)},  // leaves through z
		{math3.V3(0, 0, 1.5), math3.V3(1, 0, 0)},   // leaves through x
		{math3.V3(-3, 0.2, 2), math3.V3(1, 0, 0)},  // enters through x
		{math3.V3(0, 3, 1.5), math3.V3(0, 0, 1)},   // outside in y, moving along z
		{math3.V3(0, -3, 1.5), math3.V3(0, -1, 0)}, // outside in y, moving away
	}
	for i, r := range rays {
		got, gok, gn := v.marchRay(r.o, r.d, coarse, fine, 0.1, 9, inv)
		want, wok, wn := v.refMarchRay(r.o, r.d, coarse, fine, 0.1, 9)
		if gok != wok || math.Float64bits(got) != math.Float64bits(want) || gn != wn {
			t.Fatalf("ray %d: (%v,%v,%d), reference (%v,%v,%d)", i, got, gok, gn, want, wok, wn)
		}
	}
	if _, ok, _ := v.marchRay(rays[0].o, rays[0].d, coarse, fine, 0.1, 9, inv); !ok {
		t.Fatal("a ray entering the box missed the wall")
	}
}
