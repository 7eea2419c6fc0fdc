package core

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"slamgo/internal/device"
	"slamgo/internal/hypermapper"
	"slamgo/internal/kfusion"
	"slamgo/internal/phones"
)

func TestDSESpaceValid(t *testing.T) {
	s := DSESpace()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"volume_resolution", "compute_size_ratio", "mu_distance",
		"icp_threshold", "pyramid_iter_l0", "integration_rate", "tracking_rate",
	} {
		if s.Index(name) < 0 {
			t.Fatalf("space missing %q", name)
		}
	}
}

func TestDefaultPointRoundtrips(t *testing.T) {
	s := DSESpace()
	pt := DefaultPoint(s)
	cfg, err := ConfigFromPoint(s, pt)
	if err != nil {
		t.Fatal(err)
	}
	def := kfusion.DefaultConfig()
	if cfg.VolumeResolution != def.VolumeResolution ||
		cfg.ComputeSizeRatio != def.ComputeSizeRatio ||
		cfg.Mu != def.Mu ||
		cfg.PyramidIterations != def.PyramidIterations ||
		cfg.IntegrationRate != def.IntegrationRate {
		t.Fatalf("default point decoded to %+v", cfg)
	}
}

func TestConfigFromPointValidation(t *testing.T) {
	s := DSESpace()
	if _, err := ConfigFromPoint(s, hypermapper.Point{1}); err == nil {
		t.Fatal("short point accepted")
	}
	// All-zero pyramid iterations are repaired, not rejected.
	pt := DefaultPoint(s)
	pt[s.Index("pyramid_iter_l0")] = 0
	pt[s.Index("pyramid_iter_l1")] = 0
	pt[s.Index("pyramid_iter_l2")] = 0
	cfg, err := ConfigFromPoint(s, pt)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.PyramidIterations == [3]int{0, 0, 0} {
		t.Fatal("zero pyramid not repaired")
	}
}

func TestEvaluateQuickScale(t *testing.T) {
	seq, err := QuickScale().Sequence()
	if err != nil {
		t.Fatal(err)
	}
	model := device.NewModel(device.OdroidXU3())
	cfg := kfusion.DefaultConfig()
	cfg.VolumeResolution = 64 // keep the test fast
	m := Evaluate(seq, model, cfg)
	if m.Failed {
		t.Fatal("default-ish config failed on clean sequence")
	}
	if m.Runtime <= 0 || m.Power <= 0 || m.Energy <= 0 {
		t.Fatalf("metrics not populated: %+v", m)
	}
	if m.MaxATE <= 0 || m.MaxATE > 0.5 {
		t.Fatalf("implausible ATE: %v", m.MaxATE)
	}
}

func TestEvaluatorRejectsBadPoints(t *testing.T) {
	s := DSESpace()
	seq, err := QuickScale().Sequence()
	if err != nil {
		t.Fatal(err)
	}
	eval := new(Simulator).NewEvaluator(s, seq, device.NewModel(device.OdroidXU3()))
	m := eval(hypermapper.Point{1, 2})
	if !m.Failed {
		t.Fatal("malformed point did not fail")
	}
}

func TestVolumeResolutionTradeoffShape(t *testing.T) {
	// The paper's central premise: bigger volume → slower, more accurate
	// (or at least not less accurate); smaller volume → faster.
	seq, err := QuickScale().Sequence()
	if err != nil {
		t.Fatal(err)
	}
	model := device.NewModel(device.OdroidXU3())
	at := func(res int) hypermapper.Metrics {
		cfg := kfusion.DefaultConfig()
		cfg.VolumeResolution = res
		return Evaluate(seq, model, cfg)
	}
	small, large := at(64), at(192)
	if small.Failed || large.Failed {
		t.Fatalf("runs failed: %+v %+v", small, large)
	}
	if large.Runtime <= small.Runtime*2 {
		t.Fatalf("192³ (%.4fs) not ≫ 64³ (%.4fs)", large.Runtime, small.Runtime)
	}
	if large.Power <= small.Power {
		t.Fatalf("larger volume should draw more power: %v vs %v", large.Power, small.Power)
	}
}

func TestComputeSizeRatioTradeoffShape(t *testing.T) {
	seq, err := QuickScale().Sequence()
	if err != nil {
		t.Fatal(err)
	}
	model := device.NewModel(device.OdroidXU3())
	at := func(csr int) hypermapper.Metrics {
		cfg := kfusion.DefaultConfig()
		cfg.VolumeResolution = 64
		cfg.ComputeSizeRatio = csr
		return Evaluate(seq, model, cfg)
	}
	fine, coarse := at(1), at(4)
	if fine.Failed {
		t.Fatalf("csr=1 failed: %+v", fine)
	}
	if !coarse.Failed && coarse.Runtime >= fine.Runtime {
		t.Fatalf("coarser input should be faster: %v vs %v", coarse.Runtime, fine.Runtime)
	}
}

func TestRunFig1(t *testing.T) {
	scale := QuickScale()
	seq := render(t, scale)
	res, err := RunFig1(seq)
	if err != nil {
		t.Fatal(err)
	}
	// The live run's trace is the simulation's, so RunHeadline can
	// replay it instead of simulating the default configuration again.
	sim, err := Simulate(seq, kfusion.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Trace, sim) {
		t.Fatal("RunFig1's trace differs from a simulation of the default configuration")
	}
	s := res.Summary
	if s.Frames != scale.Frames {
		t.Fatalf("frames %d", s.Frames)
	}
	if s.TrackedFraction < 0.9 {
		t.Fatalf("default config lost tracking: %v", s.TrackedFraction)
	}
	if !strings.Contains(s.Device, "odroid-xu3") {
		t.Fatalf("device %q", s.Device)
	}
	if s.SimFPS <= 0 {
		t.Fatal("no simulated FPS")
	}
}

// TestReplayMatchesEvaluate replays one simulation on devices of every
// kind — an XU3 DVFS point, the desktop comparator and catalogue phones —
// and requires Evaluate's metrics bit for bit, a fresh simulation each.
func TestReplayMatchesEvaluate(t *testing.T) {
	seq, err := QuickScale().Sequence()
	if err != nil {
		t.Fatal(err)
	}
	cfg := kfusion.DefaultConfig()
	cfg.VolumeResolution = 64
	trace, err := Simulate(seq, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace.Costs) != seq.Len() {
		t.Fatalf("trace of %d frames for a %d-frame sequence", len(trace.Costs), seq.Len())
	}
	low, err := device.NewModel(device.OdroidXU3()).AtPoint("low")
	if err != nil {
		t.Fatal(err)
	}
	models := []*device.Model{low, device.NewModel(device.DesktopGPU())}
	picks, err := phones.ByName(42, "galaxy-s3-mali400", "pixel2-adreno540")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range picks {
		models = append(models, device.NewModel(p))
	}
	for _, m := range models {
		if got, want := trace.Replay(m), Evaluate(seq, m, cfg); !sameMetrics(got, want) {
			t.Errorf("%s/%s: replay %+v, evaluate %+v", m.Profile.Name, m.Point.Name, got, want)
		}
	}
}

// TestExploreRungs pins how Explore wires its rungs: the Memo hook sees
// each rung's stride of the full sequence, and the spend is full
// fidelity without the ladder and split by it with one.
func TestExploreRungs(t *testing.T) {
	scale := QuickScale()
	scale.Frames = 8
	seq, err := scale.Sequence()
	if err != nil {
		t.Fatal(err)
	}
	model := device.NewModel(device.OdroidXU3())
	var sim Simulator
	for _, c := range []struct {
		ladder int
		rungs  []int
	}{
		{1, []int{1}},
		{2, []int{1, 2}},
	} {
		var rungs []int
		ex, err := sim.Explore(DSESpace(), seq, model, ExploreOptions{
			RandomSamples: 3, ActiveIterations: 1, BatchPerIteration: 2,
			AccuracyLimit: 0.08, Seed: 1, Workers: 2,
			FidelityStride: c.ladder, PromoteFraction: 0.5,
			Memo: func(stride int, eval hypermapper.Evaluator) *hypermapper.MemoEvaluator {
				rungs = append(rungs, stride)
				return hypermapper.NewMemoEvaluator(eval)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(rungs, c.rungs) {
			t.Errorf("ladder %d: rungs at strides %v, want %v", c.ladder, rungs, c.rungs)
		}
		n := len(ex.Result.Observations)
		switch {
		case c.ladder == 1 && (ex.FullEvals != n || ex.LowEvals != 0):
			t.Errorf("exploration spent %d full, %d low for %d observations", ex.FullEvals, ex.LowEvals, n)
		case c.ladder > 1 && (ex.LowEvals != n || ex.FullEvals == 0 || ex.FullEvals >= n):
			t.Errorf("ladder spent %d full, %d low for %d observations", ex.FullEvals, ex.LowEvals, n)
		}
	}
}
