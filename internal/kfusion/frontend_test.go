package kfusion

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"slamgo/internal/dataset"
)

// memoConfigs returns groups of configurations: a base, then one copy
// for each front-end field that differs from the base in that field
// alone, so a memo key missing any field hands some copy its base's
// pyramid. After every group come twins of the bases, which share their
// base's front end and nothing else: they read pyramids built long
// before, with many builds in between, so a pyramid that some build
// overwrote after its first use shows. The bases cycle through every
// compute ratio and bilateral radius, the configurations through every
// pyramid-level count; the other fields vary at random.
func memoConfigs(rng *rand.Rand, groups int) []Config {
	ratios := []int{1, 2, 4, 8}
	radii := []int{0, 1, 2, 3}
	spatial := []float64{1.5, 3, 4}
	rangeSigma := []float64{0.03, 0.1, 0.3}
	bands := []float32{0.05, 0.1, 0.2}
	iters := [][3]int{{4, 0, 0}, {3, 2, 0}, {3, 2, 2}, {0, 0, 3}, {0, 2, 0}}
	other := func(n, cur int) int { return (cur + 1 + rng.Intn(n-1)) % n }

	var out, twins []Config
	add := func(to *[]Config, ri, di, si, gi, bi int) {
		cfg := DefaultConfig()
		cfg.ComputeSizeRatio = ratios[ri]
		cfg.BilateralRadius = radii[di]
		cfg.BilateralSpatialSigma = spatial[si]
		cfg.BilateralRangeSigma = rangeSigma[gi]
		cfg.PyramidDiscontinuity = bands[bi]
		cfg.PyramidIterations = iters[rng.Intn(len(iters))]
		cfg.VolumeResolution = 32 + 16*rng.Intn(3)
		cfg.Mu = 0.1 + 0.05*float64(rng.Intn(3))
		cfg.TrackingRate = 1 + rng.Intn(2)
		*to = append(*to, cfg)
	}
	for g := 0; g < groups; g++ {
		ri, di, si, gi, bi := g%4, (g/2)%4, rng.Intn(3), rng.Intn(3), rng.Intn(3)
		add(&out, ri, di, si, gi, bi)
		add(&out, other(4, ri), di, si, gi, bi)
		add(&out, ri, other(4, di), si, gi, bi)
		add(&out, ri, di, other(3, si), gi, bi)
		add(&out, ri, di, si, other(3, gi), bi)
		add(&out, ri, di, si, gi, other(3, bi))
		add(&twins, ri, di, si, gi, bi)
	}
	for i := range out {
		out[i].PyramidIterations = iters[i%len(iters)]
	}
	return append(out, twins...)
}

// memoRun feeds every frame of seq to one pipeline per configuration,
// all drawn from l by workers goroutines. Each goroutine interleaves
// its configurations three at a time, frame by frame, so pyramids built
// for one configuration are read by others mid-run, and pipelines go
// back to the list between batches.
func memoRun(t *testing.T, l *Pipelines, seq *dataset.MemorySequence, cfgs []Config, workers int) [][]FrameResult {
	f0, _ := seq.Frame(0)
	out := make([][]FrameResult, len(cfgs))
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var mine []int
			for i := g; i < len(cfgs); i += workers {
				mine = append(mine, i)
			}
			for lo := 0; lo < len(mine); lo += 3 {
				batch := mine[lo:min(lo+3, len(mine))]
				pipes := make([]*Pipeline, len(batch))
				for j, i := range batch {
					p, err := l.Get(cfgs[i], seq.Intrinsics(), f0.GroundTruth)
					if err != nil {
						t.Error(err)
						return
					}
					pipes[j] = p
				}
				for f := 0; f < seq.Len(); f++ {
					frame, _ := seq.Frame(f)
					for j, i := range batch {
						r, err := pipes[j].ProcessFrame(frame.Depth)
						if err != nil {
							t.Error(err)
							return
						}
						r.KernelTimes = [4]time.Duration{}
						out[i] = append(out[i], *r)
					}
				}
				for _, p := range pipes {
					l.Put(p)
				}
			}
		}(g)
	}
	wg.Wait()
	return out
}

// TestFrontMemoMatchesNew runs 64 configurations, covering every compute
// ratio, bilateral radius 0–3, several sigmas and discontinuity bands,
// and every pyramid-level count, through one list with 1 and with 4
// goroutines, and demands every frame result (all but wall times) of a
// pipeline from New on the same frames. The DSE never varies the
// bilateral fields, so this is the test that guards the memo's key.
func TestFrontMemoMatchesNew(t *testing.T) {
	seq, err := dataset.LivingRoomKT(0, dataset.PresetOptions{
		Width: 96, Height: 72, Frames: 5, FPS: 30, Noisy: true, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfgs := memoConfigs(rand.New(rand.NewSource(7)), 8)
	type frontEnd struct {
		ratio, radius     int
		spatial, rangeSig float64
		band              float32
	}
	distinct := map[frontEnd]bool{}
	want := make([][]FrameResult, len(cfgs))
	for i, cfg := range cfgs {
		f0, _ := seq.Frame(0)
		p, err := New(cfg, seq.Intrinsics(), f0.GroundTruth)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = runFrames(t, p, seq)
		distinct[frontEnd{cfg.ComputeSizeRatio, cfg.BilateralRadius,
			cfg.BilateralSpatialSigma, cfg.BilateralRangeSigma, cfg.PyramidDiscontinuity}] = true
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var l Pipelines
			got := memoRun(t, &l, seq, cfgs, workers)
			for i := range cfgs {
				for f := range want[i] {
					if f >= len(got[i]) || !reflect.DeepEqual(got[i][f], want[i][f]) {
						t.Fatalf("config %d (%+v) frame %d: memo pipeline differs from New", i, cfgs[i], f)
					}
				}
			}
			entries := 0
			for _, e := range l.front.frames {
				entries += len(e)
			}
			if len(l.front.frames) != seq.Len() || entries != seq.Len()*len(distinct) {
				t.Fatalf("memo holds %d frames and %d pyramids, want %d and %d",
					len(l.front.frames), entries, seq.Len(), seq.Len()*len(distinct))
			}
		})
	}
}

// TestFrontMemoBounded feeds a pipeline from a list a fresh copy of
// each frame, as a sequence that decodes every frame it hands out
// (dataset.FileSequence) does: every frame is a new memo key, and the
// memo must stop growing at its cap while frames keep the results of a
// pipeline from New.
func TestFrontMemoBounded(t *testing.T) {
	seq, err := dataset.LivingRoomKT(0, dataset.PresetOptions{
		Width: 320, Height: 240, Frames: 2, FPS: 30, Noisy: true, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.ComputeSizeRatio = 8
	cfg.VolumeResolution = 16
	f0, _ := seq.Frame(0)
	var l Pipelines
	p, err := l.Get(cfg, seq.Intrinsics(), f0.GroundTruth)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(cfg, seq.Intrinsics(), f0.GroundTruth)
	if err != nil {
		t.Fatal(err)
	}
	perFrame := 4*int64(len(f0.Depth.Pix)) + pyramidBytes(f0.Depth, cfg.ComputeSizeRatio)
	fit := int(frontMemoMaxBytes / perFrame)
	for i := 0; i < fit+10; i++ {
		f, _ := seq.Frame(i % seq.Len())
		got, err := p.ProcessFrame(f.Depth.Clone())
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.ProcessFrame(f.Depth)
		if err != nil {
			t.Fatal(err)
		}
		got.KernelTimes, want.KernelTimes = [4]time.Duration{}, [4]time.Duration{}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d: memo pipeline differs from New", i)
		}
		if l.front.bytes > frontMemoMaxBytes {
			t.Fatalf("frame %d: memo holds %d bytes, cap %d", i, l.front.bytes, frontMemoMaxBytes)
		}
	}
	if n := len(l.front.frames); n != fit {
		t.Fatalf("memo holds %d frames, want the %d that fit in its cap", n, fit)
	}
}
