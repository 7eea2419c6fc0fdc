package tsdf

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"slamgo/internal/imgproc"
	"slamgo/internal/math3"
)

// checkFreeBits fails unless every voxel's free bit equals W > 0 &&
// D == 1 and no padding bit past a plane's last voxel is set. It
// returns how many voxels are free.
func checkFreeBits(t *testing.T, where string, v *Volume) (free int) {
	t.Helper()
	if len(v.free)*64 != v.Res*v.plane || v.plane%64 != 0 || v.plane < v.Res*v.Res {
		t.Fatalf("%s: %d words for %d planes of %d bits", where, len(v.free), v.Res, v.plane)
	}
	for z := 0; z < v.Res; z++ {
		for y := 0; y < v.Res; y++ {
			for x := 0; x < v.Res; x++ {
				d, w := v.At(x, y, z)
				want := w > 0 && d == 1
				if v.isFree(z*v.plane+y*v.Res+x) != want {
					t.Fatalf("%s: voxel (%d,%d,%d) = (%v,%v) has free bit %v", where, x, y, z, d, w, !want)
				}
				if want {
					free++
				}
			}
		}
		for k := z*v.plane + v.Res*v.Res; k < (z+1)*v.plane; k++ {
			if v.isFree(k) {
				t.Fatalf("%s: padding bit %d of plane %d is set", where, k-z*v.plane, z)
			}
		}
	}
	return free
}

// TestFreeBitsTrackVoxels checks, after every Integrate, that each
// voxel's free bit is exactly W > 0 && D == 1. The 100³ grid's plane
// (10,000 bits) is not a multiple of 64, so planes are padded; the low
// weight cap fires; and a last pose sees the whole volume in front of a
// far wall, so every plane's first and last rows are written in one
// call (neighbouring z-slabs then write neighbouring words, which
// -race checks). The point samples compare the fast path against the
// reference sampler at this padded layout.
func TestFreeBitsTrackVoxels(t *testing.T) {
	fx := newKernelFixture(t, fixtureSequence(t), 2)
	const res, size, maxWeight = 100, 5.6, 4
	centre := math3.V3(0, 1.3, 0)
	origin := centre.Sub(math3.Splat3(size / 2))
	for ci, mu := range []float64{0.025, 0.1, 0.3} {
		rng := rand.New(rand.NewSource(int64(ci + 1)))
		poses := kernelPoses(rng, fx, centre, size)
		v := New(res, size, origin)
		checkFreeBits(t, "fresh", v)
		for round := 0; round < 2; round++ {
			for pi, pose := range poses {
				v.Integrate(fx.depths[(pi*5)%len(fx.depths)], pose, fx.in, mu, maxWeight)
				checkFreeBits(t, fmt.Sprintf("mu %g round %d pose %d", mu, round, pi), v)
			}
		}
		whole := lookAt(centre.Sub(math3.V3(0, 0, 10)), math3.V3(0, 0, 1))
		v.Integrate(flatWall(fx.in, 20), whole, fx.in, mu, maxWeight)
		free := checkFreeBits(t, fmt.Sprintf("mu %g whole volume", mu), v)

		capped, surface := 0, 0
		for i := range v.W {
			if v.W[i] == maxWeight {
				capped++
			}
			if v.W[i] > 0 && v.D[i] != 1 {
				surface++
			}
		}
		if free == 0 || capped == 0 || surface == 0 {
			t.Fatalf("mu %g: %d free, %d capped, %d observed non-free voxels; want all > 0", mu, free, capped, surface)
		}

		for i := 0; i < 20000; i++ {
			p := centre.Add(math3.V3(rng.Float64()-0.5, rng.Float64()-0.5, rng.Float64()-0.5).Scale(1.2 * size))
			gv, gok := v.SampleRelaxed(p)
			wv, wok := v.refSampleRelaxed(p)
			if gok != wok || math.Float64bits(gv) != math.Float64bits(wv) {
				t.Fatalf("mu %g: SampleRelaxed(%v) = %v %v, reference %v %v", mu, p, gv, gok, wv, wok)
			}
			gg, ggok := v.Gradient(p)
			wg, wgok := v.refGradient(p)
			if ggok != wgok || !sameVec(gg, wg) {
				t.Fatalf("mu %g: Gradient(%v) = %v %v, reference %v %v", mu, p, gg, ggok, wg, wgok)
			}
		}
	}
}

// TestReusedVolumeMatchesFresh integrates a 256³ volume, resizes it to
// 96³ (keeping its storage, as kfusion.Pipelines does when a smaller
// grid follows a larger one) and requires it to behave bit for bit like
// a fresh 96³ volume fed the same frames: voxels, free bits, raycast
// maps and cost, point samples and gradients. It then repeats the
// comparison after Reset.
func TestReusedVolumeMatchesFresh(t *testing.T) {
	fx := newKernelFixture(t, fixtureSequence(t), 2)
	const size, mu = 5.6, 0.1
	centre := math3.V3(0, 1.3, 0)
	origin := centre.Sub(math3.Splat3(size / 2))

	v := New(256, size, origin)
	for i := 0; i < len(fx.depths); i += 4 {
		v.Integrate(fx.depths[i], fx.gt[i], fx.in, mu, 100)
	}
	whole := lookAt(centre.Sub(math3.V3(0, 0, 10)), math3.V3(0, 0, 1))
	v.Integrate(flatWall(fx.in, 20), whole, fx.in, mu, 100)
	d, free := &v.D[0], &v.free[0]
	v.Resize(96, size, origin)
	if &v.D[0] != d || &v.free[0] != free {
		t.Fatal("Resize to a smaller grid reallocated the volume")
	}

	for _, stage := range []string{"resized", "reset"} {
		if stage == "reset" {
			v.Reset()
		}
		fresh := New(96, size, origin)
		for i, depth := range fx.depths {
			v.Integrate(depth, fx.gt[i], fx.in, mu, 100)
			fresh.Integrate(depth, fx.gt[i], fx.in, mu, 100)
		}
		rng := rand.New(rand.NewSource(3))
		for pi, pose := range kernelPoses(rng, fx, centre, size) {
			gv, gn := imgproc.NewVertexMap(fx.in.Width, fx.in.Height), imgproc.NewNormalMap(fx.in.Width, fx.in.Height)
			wv, wn := imgproc.NewVertexMap(fx.in.Width, fx.in.Height), imgproc.NewNormalMap(fx.in.Width, fx.in.Height)
			gr := v.RaycastInto(gv, gn, pose, fx.in, mu, 0.1, size*1.8)
			wr := fresh.RaycastInto(wv, wn, pose, fx.in, mu, 0.1, size*1.8)
			where := fmt.Sprintf("%s raycast pose %d", stage, pi)
			if gr.Cost != wr.Cost {
				t.Fatalf("%s: cost %+v, fresh %+v", where, gr.Cost, wr.Cost)
			}
			sameMap(t, where+" vertices", gv, wv)
			sameMap(t, where+" normals", gn, wn)
		}
		for i := 0; i < 20000; i++ {
			p := centre.Add(math3.V3(rng.Float64()-0.5, rng.Float64()-0.5, rng.Float64()-0.5).Scale(1.2 * size))
			gv, gok := v.SampleRelaxed(p)
			wv, wok := fresh.SampleRelaxed(p)
			if gok != wok || math.Float64bits(gv) != math.Float64bits(wv) {
				t.Fatalf("%s: SampleRelaxed(%v) = %v %v, fresh %v %v", stage, p, gv, gok, wv, wok)
			}
			gg, ggok := v.Gradient(p)
			wg, wgok := fresh.Gradient(p)
			if ggok != wgok || !sameVec(gg, wg) {
				t.Fatalf("%s: Gradient(%v) = %v %v, fresh %v %v", stage, p, gg, ggok, wg, wgok)
			}
		}
		sameVolume(t, stage, v, fresh)
		for i := range v.free {
			if v.free[i] != fresh.free[i] {
				t.Fatalf("%s: free-bit word %d is %#x, fresh %#x", stage, i, v.free[i], fresh.free[i])
			}
		}
	}
}
