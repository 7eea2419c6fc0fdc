package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"slamgo/internal/dataset"
	"slamgo/internal/device"
	"slamgo/internal/hypermapper"
	"slamgo/internal/kfusion"
	"slamgo/internal/parallel"
)

// metricsBits builds Metrics from the IEEE-754 bits of each field.
func metricsBits(runtime, maxATE, power, energy uint64, failed bool) hypermapper.Metrics {
	return hypermapper.Metrics{
		Runtime: math.Float64frombits(runtime),
		MaxATE:  math.Float64frombits(maxATE),
		Power:   math.Float64frombits(power),
		Energy:  math.Float64frombits(energy),
		Failed:  failed,
	}
}

func sameMetrics(a, b hypermapper.Metrics) bool {
	return math.Float64bits(a.Runtime) == math.Float64bits(b.Runtime) &&
		math.Float64bits(a.MaxATE) == math.Float64bits(b.MaxATE) &&
		math.Float64bits(a.Power) == math.Float64bits(b.Power) &&
		math.Float64bits(a.Energy) == math.Float64bits(b.Energy) &&
		a.Failed == b.Failed && a.LowFidelity == b.LowFidelity
}

// TestSimulationGolden pins the exact metrics of ten design points on the
// quick lr_kt0 sequence, recorded with the reference kernels (a pass over
// every voxel, a march to the far plane) and fresh pipelines. The points
// cover every volume resolution and compute size ratio of the DSE space,
// and the 64³ point at ratio 1 fails. They run largest volume first,
// down to the smallest and back up, through one Simulator, so a pipeline
// whose reset left stale voxels, a stale reference or a stale pose
// behind would show; with 2 workers two pipelines circulate.
func TestSimulationGolden(t *testing.T) {
	seq, err := QuickScale().Sequence()
	if err != nil {
		t.Fatal(err)
	}
	space := DSESpace()
	model := device.NewModel(device.OdroidXU3())
	golden := []struct {
		pt   hypermapper.Point
		want hypermapper.Metrics
	}{
		{hypermapper.Point{256, 2, 0.1, 1e-5, 10, 5, 4, 1, 1}, metricsBits(0x3fc48d5b3c66b89c, 0x3fa664979e3b3796, 0x401280cf21238e9f, 0x4027c47b8d345b7c, false)},
		{hypermapper.Point{64, 1, 0.025, 1e-6, 10, 5, 4, 1, 1}, metricsBits(0x3f8b9080257f407e, 0x40021a1851ff630b, 0x3ff18fa64caafe71, 0x3fe2bb5c0d833189, true)},
		{hypermapper.Point{96, 4, 0.3, 1e-4, 6, 3, 2, 2, 1}, metricsBits(0x3f89a760367689a0, 0x3fc8fe9f98ace63c, 0x3feec0e5fd1f7aec, 0x3fe066e10f88418f, false)},
		{hypermapper.Point{128, 8, 0.05, 1e-3, 4, 2, 2, 1, 2}, metricsBits(0x3f93182e004371c3, 0x40021a1851ff630b, 0x3ffc98ec8dacfc4b, 0x3fee80fc52daa6b6, false)},
		{hypermapper.Point{192, 1, 0.2, 1e-5, 8, 4, 3, 3, 1}, metricsBits(0x3fa54cbba07f91dc, 0x3f81e8653acb1768, 0x4010480d1335f946, 0x4005aca654bd3b28, false)},
		{hypermapper.Point{256, 4, 0.05, 1e-5, 5, 5, 4, 2, 2}, metricsBits(0x3f91e414686cd0e4, 0x40021a1851ff630b, 0x3ffb59a7d9a5f923, 0x3fed2c6ec6065f14, false)},
		{hypermapper.Point{64, 2, 0.2, 1e-4, 3, 0, 0, 5, 5}, metricsBits(0x3f83f3100530c169, 0x4000b413a3d30b2c, 0x3fe2b88cd530489d, 0x3fd3f80db03380a7, false)},
		{hypermapper.Point{128, 2, 0.025, 1e-5, 2, 5, 0, 1, 5}, metricsBits(0x3fa0f12dc45e6942, 0x40021a1851ff630b, 0x400e427ec4b2ccf1, 0x40002376cf4e4b2b, false)},
		{hypermapper.Point{64, 8, 0.3, 1e-3, 0, 0, 1, 8, 5}, metricsBits(0x3f812020f79c593c, 0x40021a1851ff630b, 0x3fd98739291679bc, 0x3fcb3ae7a34b2c84, false)},
		{hypermapper.Point{128, 8, 0.3, 1e-6, 1, 0, 0, 5, 2}, metricsBits(0x3f89f5dac588e0bb, 0x4002b4b21cfb11a0, 0x3fef667082ea2aac, 0x3fe0bf2af07ce38f, false)},
	}

	// Largest volume first, down to the smallest, and back up.
	down := make([]int, len(golden))
	for i := range down {
		down[i] = i
	}
	slices.SortStableFunc(down, func(a, b int) int { return int(golden[b].pt[0] - golden[a].pt[0]) })
	up := slices.Clone(down)
	slices.Reverse(up)
	order := append(down, up...)

	var sim Simulator
	for _, workers := range []int{1, 2} {
		got := parallel.MapOrdered(workers, order, func(_ int, i int) hypermapper.Metrics {
			cfg, err := ConfigFromPoint(space, golden[i].pt)
			if err != nil {
				t.Error(err)
				return hypermapper.Metrics{}
			}
			return sim.Evaluate(seq, model, cfg)
		})
		for k, i := range order {
			if !sameMetrics(got[k], golden[i].want) {
				t.Errorf("workers %d, run %d: point %v = %+v, golden %+v",
					workers, k, golden[i].pt, got[k], golden[i].want)
			}
		}
	}

	// The integration-rate ablation on the 24-frame noisy benchmark
	// sequence, once benchmark rows whose loop timed nothing: 128³ at
	// integration rate 1 gave 31.53 simulated FPS at 68.92 mm max ATE,
	// rate 4 gave 62.41 FPS at 24.56 mm.
	bench, err := dataset.LivingRoomKT(0, dataset.PresetOptions{
		Width: 160, Height: 120, Frames: 24, FPS: 30, Noisy: true, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	ablation := []struct {
		rate       int
		want       hypermapper.Metrics
		fps, ateMM string
	}{
		{1, metricsBits(0x3fa03d0f134353bc, 0x3fb1a505ddcdd05b, 0x400c69c18f3160ca, 0x4006bb013f5ab3d5, false), "31.53", "68.92"},
		{4, metricsBits(0x3f906849f8c77c81, 0x3f9925c1720e5f9a, 0x3ff6ede78de382f2, 0x3ff257ec7182cf28, false), "62.41", "24.56"},
	}
	for _, a := range ablation {
		cfg := kfusion.DefaultConfig()
		cfg.VolumeResolution = 128
		cfg.IntegrationRate = a.rate
		m := sim.Evaluate(bench, model, cfg)
		if !sameMetrics(m, a.want) {
			t.Errorf("integration rate %d: %+v, golden %+v", a.rate, m, a.want)
		}
		if fps, ate := fmt.Sprintf("%.2f", 1/m.Runtime), fmt.Sprintf("%.2f", m.MaxATE*1000); fps != a.fps || ate != a.ateMM {
			t.Errorf("integration rate %d: %s simFPS at %s mm, want %s at %s", a.rate, fps, ate, a.fps, a.ateMM)
		}
	}
}
