package kfusion

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"slamgo/internal/camera"
	"slamgo/internal/dataset"
	"slamgo/internal/math3"
)

// TestPipelineDeterministicWithPooledBuffers runs the same sequence
// through two pipelines and demands bit-identical trajectories: the
// recycled buffers must behave exactly like fresh allocations, and the
// chunk-ordered kernel reductions must not depend on scheduling.
func TestPipelineDeterministicWithPooledBuffers(t *testing.T) {
	seq, err := dataset.LivingRoomKT(0, dataset.PresetOptions{
		Width: 160, Height: 120, Frames: 8, FPS: 30, Noisy: true, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.VolumeResolution = 64
	cfg.ComputeSizeRatio = 2

	run := func() []FrameResult {
		f0, _ := seq.Frame(0)
		p, err := New(cfg, seq.Intrinsics(), f0.GroundTruth)
		if err != nil {
			t.Fatal(err)
		}
		var out []FrameResult
		for i := 0; i < seq.Len(); i++ {
			f, _ := seq.Frame(i)
			r, err := p.ProcessFrame(f.Depth)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, *r)
		}
		return out
	}

	a, b := run(), run()
	for i := range a {
		if a[i].Pose != b[i].Pose {
			t.Fatalf("frame %d: pose diverges between identical runs", i)
		}
		if a[i].Tracked != b[i].Tracked || a[i].Integrated != b[i].Integrated {
			t.Fatalf("frame %d: control flow diverges between identical runs", i)
		}
		if a[i].KernelCosts != b[i].KernelCosts {
			t.Fatalf("frame %d: kernel costs diverge between identical runs", i)
		}
	}
}

// runFrames feeds every frame of seq to p and returns the results.
func runFrames(t *testing.T, p *Pipeline, seq *dataset.MemorySequence) []FrameResult {
	t.Helper()
	var out []FrameResult
	for i := 0; i < seq.Len(); i++ {
		f, _ := seq.Frame(i)
		r, err := p.ProcessFrame(f.Depth)
		if err != nil {
			t.Fatal(err)
		}
		r.KernelTimes = [4]time.Duration{}
		out = append(out, *r)
	}
	return out
}

// TestResetMatchesNew runs configurations on a pipeline reset from
// earlier runs (a larger volume, then a smaller one, at another compute
// size ratio) and demands the frame results of a fresh pipeline.
func TestResetMatchesNew(t *testing.T) {
	seq, err := dataset.LivingRoomKT(0, dataset.PresetOptions{
		Width: 160, Height: 120, Frames: 6, FPS: 30, Noisy: true, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	f0, _ := seq.Frame(0)
	cfgs := []Config{DefaultConfig(), DefaultConfig(), DefaultConfig()}
	cfgs[0].VolumeResolution, cfgs[0].ComputeSizeRatio = 96, 1
	cfgs[1].VolumeResolution, cfgs[1].ComputeSizeRatio, cfgs[1].Mu = 48, 2, 0.2
	cfgs[2].VolumeResolution, cfgs[2].ComputeSizeRatio = 64, 4

	var reused *Pipeline
	for i, cfg := range cfgs {
		fresh, err := New(cfg, seq.Intrinsics(), f0.GroundTruth)
		if err != nil {
			t.Fatal(err)
		}
		if reused == nil {
			reused, err = New(cfg, seq.Intrinsics(), f0.GroundTruth)
		} else {
			err = reused.Reset(cfg, seq.Intrinsics(), f0.GroundTruth)
		}
		if err != nil {
			t.Fatal(err)
		}
		want, got := runFrames(t, fresh, seq), runFrames(t, reused, seq)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("config %d: a reset pipeline's frames differ from a fresh one's", i)
		}
		if v := reused.Volume(); v.Res != cfg.VolumeResolution || cap(v.D) < 96*96*96 {
			t.Fatalf("config %d: reset volume is %d³ with capacity %d", i, v.Res, cap(v.D))
		}
	}
	bad := cfgs[0]
	bad.ComputeSizeRatio = 3
	if err := reused.Reset(bad, seq.Intrinsics(), f0.GroundTruth); err == nil {
		t.Fatal("Reset accepted compute size ratio 3")
	}
	if reused.Config() != cfgs[2] {
		t.Fatal("a rejected Reset changed the pipeline")
	}
}

// TestPipelinesFreeList pins the free list's choices: the smallest idle
// volume that holds the request, and dropping every idle pipeline when
// none does.
func TestPipelinesFreeList(t *testing.T) {
	in := camera.Kinect640().ScaledTo(160, 120)
	at := func(res int) Config {
		cfg := DefaultConfig()
		cfg.VolumeResolution = res
		return cfg
	}
	var l Pipelines
	get := func(res int) *Pipeline {
		t.Helper()
		p, err := l.Get(at(res), in, math3.SE3Identity())
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	p32, p48 := get(32), get(48)
	l.Put(p32)
	l.Put(p48)
	if p := get(24); p != p32 {
		t.Fatal("a 24³ request did not take the smallest idle volume that holds it")
	}
	if p := get(40); p != p48 {
		t.Fatal("a 40³ request did not take the 48³ volume")
	}
	l.Put(p32)
	if p := get(64); p == p32 || len(l.idle) != 0 {
		t.Fatalf("a 64³ request reused a 32³ volume or kept %d smaller idle pipelines", len(l.idle))
	}
	if _, err := l.Get(at(3), in, math3.SE3Identity()); err == nil {
		t.Fatal("Get accepted a 3³ volume")
	}
	var none *Pipelines
	if p, err := none.Get(at(32), in, math3.SE3Identity()); err != nil || p.Volume().Res != 32 {
		t.Fatalf("a nil list did not allocate: %v", err)
	}
	none.Put(p48) // discards
}

// TestPipelinesConcurrent shares one list between goroutines, as a
// campaign's workers do: no pipeline may be handed to two holders at
// once, and each holder gets the grid it asked for.
func TestPipelinesConcurrent(t *testing.T) {
	in := camera.Kinect640().ScaledTo(64, 48)
	var l Pipelines
	var mu sync.Mutex
	held := map[*Pipeline]bool{}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				cfg := DefaultConfig()
				cfg.VolumeResolution = 16 + 8*((g+i)%3)
				p, err := l.Get(cfg, in, math3.SE3Identity())
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				if held[p] {
					t.Error("one pipeline handed to two holders")
				}
				held[p] = true
				mu.Unlock()
				if p.Volume().Res != cfg.VolumeResolution || p.Config() != cfg {
					t.Errorf("asked for %d³, got %d³", cfg.VolumeResolution, p.Volume().Res)
				}
				mu.Lock()
				delete(held, p)
				mu.Unlock()
				l.Put(p)
			}
		}(g)
	}
	wg.Wait()
	if n := len(l.idle); n > 4 {
		t.Fatalf("%d idle pipelines after 4 concurrent holders", n)
	}
}
