package imgproc

import (
	"math"
	"sync"

	"slamgo/internal/parallel"
)

// spatialKey identifies one precomputed spatial Gaussian kernel.
type spatialKey struct {
	radius int
	sigma  float64
}

// spatialKernels caches the (2r+1)² spatial Gaussian per (radius, sigma).
// The DSE evaluates thousands of configurations that share a handful of
// kernel shapes, so the exp() table is computed once per shape instead of
// once per frame.
var spatialKernels sync.Map

func spatialKernel(radius int, sigma float64) []float64 {
	key := spatialKey{radius, sigma}
	if k, ok := spatialKernels.Load(key); ok {
		return k.([]float64)
	}
	size := 2*radius + 1
	k := make([]float64, size*size)
	inv2ss := 1 / (2 * sigma * sigma)
	for dy := -radius; dy <= radius; dy++ {
		for dx := -radius; dx <= radius; dx++ {
			d2 := float64(dx*dx + dy*dy)
			k[(dy+radius)*size+(dx+radius)] = math.Exp(-d2 * inv2ss)
		}
	}
	actual, _ := spatialKernels.LoadOrStore(key, k)
	return actual.([]float64)
}

// BilateralFilter applies the edge-preserving bilateral filter KinectFusion
// uses to denoise raw depth before tracking. spatialSigma is in pixels,
// rangeSigma in metres, radius in pixels (the kernel is (2r+1)²).
//
// Invalid pixels neither contribute nor receive values. The returned Cost
// reflects the per-pixel kernel evaluation work, which scales with the
// kernel area — exactly the knob the paper's DSE explores indirectly via
// the compute-size ratio.
func BilateralFilter(src *DepthMap, radius int, spatialSigma, rangeSigma float64) (*DepthMap, Cost) {
	dst := NewDepthMap(src.Width, src.Height)
	return dst, BilateralFilterInto(dst, src, radius, spatialSigma, rangeSigma)
}

// BilateralFilterInto is the allocation-free variant: it writes the
// filtered depth into dst (same dimensions as src, every pixel is
// overwritten), evaluating rows in parallel. Reductions are merged in a
// fixed chunk order, so the output and cost are identical for any
// worker count.
func BilateralFilterInto(dst, src *DepthMap, radius int, spatialSigma, rangeSigma float64) Cost {
	if radius < 0 {
		radius = 0
	}
	if radius == 0 {
		copy(dst.Pix, src.Pix)
		return Cost{Ops: int64(len(src.Pix)), Bytes: int64(len(src.Pix) * 8)}
	}

	size := 2*radius + 1
	spatial := spatialKernel(radius, spatialSigma)
	inv2rs := 1 / (2 * rangeSigma * rangeSigma)

	ops := parallel.Reduce(src.Height, 0, func(ylo, yhi int) int64 {
		var ops int64
		for y := ylo; y < yhi; y++ {
			for x := 0; x < src.Width; x++ {
				center := src.At(x, y)
				if center <= 0 {
					dst.Set(x, y, 0)
					continue
				}
				var sum, wsum float64
				for dy := -radius; dy <= radius; dy++ {
					yy := y + dy
					if yy < 0 || yy >= src.Height {
						continue
					}
					for dx := -radius; dx <= radius; dx++ {
						xx := x + dx
						if xx < 0 || xx >= src.Width {
							continue
						}
						v := src.At(xx, yy)
						if v <= 0 {
							continue
						}
						diff := float64(v - center)
						w := spatial[(dy+radius)*size+(dx+radius)] * math.Exp(-diff*diff*inv2rs)
						sum += w * float64(v)
						wsum += w
						ops += 6
					}
				}
				if wsum > 0 {
					dst.Set(x, y, float32(sum/wsum))
				} else {
					dst.Set(x, y, 0)
				}
			}
		}
		return ops
	}, func(acc *int64, p int64) { *acc += p })
	return Cost{Ops: ops, Bytes: int64(src.Width * src.Height * 4 * (size*size + 1))}
}

// Pyramid holds the multi-resolution depth, vertex and normal maps the ICP
// tracker consumes. Level 0 is the finest.
type Pyramid struct {
	Depth    []*DepthMap
	Vertices []*VertexMap
	Normals  []*NormalMap
}

// Levels returns the number of pyramid levels.
func (p *Pyramid) Levels() int { return len(p.Depth) }

// BuildDepthPyramid constructs an n-level depth pyramid via validity-aware
// half-sampling with the given discontinuity band (metres). out[0]
// aliases base.
func BuildDepthPyramid(base *DepthMap, levels int, band float32) ([]*DepthMap, Cost) {
	if levels < 1 {
		levels = 1
	}
	out := make([]*DepthMap, levels)
	out[0] = base
	var cost Cost
	for l := 1; l < levels; l++ {
		src := out[l-1]
		d := NewDepthMap(src.Width/2, src.Height/2)
		cost.Add(HalfSampleDepthInto(d, src, band))
		out[l] = d
	}
	return out, cost
}
