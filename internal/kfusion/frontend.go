package kfusion

import (
	"math"
	"sync"

	"slamgo/internal/imgproc"
)

// maxLevels is the deepest pyramid a configuration can ask for.
const maxLevels = len(Config{}.PyramidIterations)

// pyramid is one frame's filtered depth pyramid at compute resolution,
// finest level first, with the cost of building each level: level 0's
// covers the downsample and the bilateral filter, level l's the
// half-sample from level l−1. Level l is built from level l−1 alone, so
// the first n levels and costs of a deeper pyramid are exactly what an
// n-level configuration builds.
type pyramid struct {
	depth [maxLevels]*imgproc.DepthMap
	cost  [maxLevels]imgproc.Cost
}

// build runs cfg's depth front end on input: downsample to compute
// resolution, bilateral filter, then half-sample down to levels levels.
// Intermediate maps come from scratch and go straight back; the
// pyramid's own maps come from out, or are allocated when out is nil.
// The input map is only ever read.
func (pyr *pyramid) build(input *imgproc.DepthMap, cfg *Config, levels int, scratch, out *imgproc.BufferPool) {
	var c imgproc.Cost
	work := input
	for r := cfg.ComputeSizeRatio; r > 1; r /= 2 {
		half := scratch.Depth(work.Width/2, work.Height/2)
		c.Add(imgproc.HalfSampleDepthInto(half, work, cfg.PyramidDiscontinuity))
		if work != input {
			scratch.PutDepth(work)
		}
		work = half
	}
	filtered := newDepth(out, work.Width, work.Height)
	c.Add(imgproc.BilateralFilterInto(
		filtered, work, cfg.BilateralRadius, cfg.BilateralSpatialSigma, cfg.BilateralRangeSigma,
	))
	if work != input {
		scratch.PutDepth(work)
	}
	pyr.depth[0], pyr.cost[0] = filtered, c
	for l := 1; l < levels; l++ {
		src := pyr.depth[l-1]
		d := newDepth(out, src.Width/2, src.Height/2)
		pyr.cost[l] = imgproc.HalfSampleDepthInto(d, src, cfg.PyramidDiscontinuity)
		pyr.depth[l] = d
	}
}

// newDepth draws a w×h depth map from pool, or allocates one when pool
// is nil.
func newDepth(pool *imgproc.BufferPool, w, h int) *imgproc.DepthMap {
	if pool == nil {
		return imgproc.NewDepthMap(w, h)
	}
	return pool.Depth(w, h)
}

// frontMemoMaxBytes caps what one front-end memo keeps alive: each
// input map it holds as a key, once, plus the three pyramid levels of
// each entry. A quick-scale scene (160×120, 16 frames, four compute
// ratios) takes about 3.4 MB, a default-scale one (320×240, 40 frames)
// about 34 MB.
const frontMemoMaxBytes = 64 << 20

// frontParams holds the bits of every Config field the front end reads.
type frontParams struct {
	ratio, radius          int
	spatialBits, rangeBits uint64
	bandBits               uint32
}

// frontEntry is one memoized pyramid, built once by whichever pipeline
// asks first.
type frontEntry struct {
	once  sync.Once
	pyr   pyramid
	built bool
}

// frontMemo holds the depth pyramids of one run's frames, so that every
// simulation of the run reads a frame's front end instead of computing
// it again: the DSE varies only ComputeSizeRatio among the fields the
// front end reads, so a frame has at most four distinct pyramids in a
// run. Entries are keyed on the input map's identity, then on the
// front-end fields. Their maps are the memo's own (never a BufferPool's)
// and read-only once built. A new entry that would take the memo past
// frontMemoMaxBytes is not made: that frame is preprocessed by each
// pipeline as if there were no memo. The zero value is empty and safe
// for concurrent use.
type frontMemo struct {
	mu     sync.Mutex
	frames map[*imgproc.DepthMap]map[frontParams]*frontEntry
	bytes  int64
}

// get returns input's three-level pyramid under cfg's front-end fields,
// building it on first use with scratch for intermediates. Concurrent
// callers of one entry wait for a single build. It returns nil on a nil
// memo, when the memo is full, or when the entry's build panicked; the
// caller then preprocesses the frame itself.
func (m *frontMemo) get(input *imgproc.DepthMap, cfg *Config, scratch *imgproc.BufferPool) *pyramid {
	if m == nil {
		return nil
	}
	k := frontParams{
		ratio:       cfg.ComputeSizeRatio,
		radius:      cfg.BilateralRadius,
		spatialBits: math.Float64bits(cfg.BilateralSpatialSigma),
		rangeBits:   math.Float64bits(cfg.BilateralRangeSigma),
		bandBits:    math.Float32bits(cfg.PyramidDiscontinuity),
	}
	m.mu.Lock()
	entries := m.frames[input]
	e := entries[k]
	if e == nil {
		size := pyramidBytes(input, cfg.ComputeSizeRatio)
		if entries == nil {
			size += 4 * int64(len(input.Pix))
		}
		if m.bytes+size > frontMemoMaxBytes {
			m.mu.Unlock()
			return nil
		}
		if entries == nil {
			if m.frames == nil {
				m.frames = map[*imgproc.DepthMap]map[frontParams]*frontEntry{}
			}
			entries = map[frontParams]*frontEntry{}
			m.frames[input] = entries
		}
		e = &frontEntry{}
		entries[k] = e
		m.bytes += size
	}
	m.mu.Unlock()
	e.once.Do(func() {
		e.pyr.build(input, cfg, maxLevels, scratch, nil)
		e.built = true
	})
	if !e.built {
		return nil
	}
	return &e.pyr
}

// pyramidBytes is the size of the three-level pyramid built from input
// at ratio.
func pyramidBytes(input *imgproc.DepthMap, ratio int) int64 {
	w, h := input.Width, input.Height
	for r := ratio; r > 1; r /= 2 {
		w, h = w/2, h/2
	}
	n := 0
	for l := 0; l < maxLevels; l++ {
		n += (w >> l) * (h >> l)
	}
	return 4 * int64(n)
}
