package core

import (
	"crypto/sha256"
	"encoding/hex"
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

// metricsLiteral formats m as the metricsBits call that pins it.
func metricsLiteral(m hypermapper.Metrics) string {
	return fmt.Sprintf("metricsBits(%#x, %#x, %#x, %#x, %t)",
		math.Float64bits(m.Runtime), math.Float64bits(m.MaxATE),
		math.Float64bits(m.Power), math.Float64bits(m.Energy), m.Failed)
}

// bitsDigest hashes the exact bits of its arguments: float64 values by
// their IEEE-754 encoding, everything else by its %v form.
func bitsDigest(vals ...any) string {
	h := sha256.New()
	for _, v := range vals {
		if f, ok := v.(float64); ok {
			v = math.Float64bits(f)
		}
		fmt.Fprintf(h, "%v|", v)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// benchSequence renders the 24-frame noisy living-room sequence the
// root benchmarks run on.
func benchSequence(t *testing.T) dataset.Sequence {
	t.Helper()
	seq, err := dataset.LivingRoomKT(0, dataset.PresetOptions{
		Width: 160, Height: 120, Frames: 24, FPS: 30, Noisy: true, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	return seq
}

// benchTunedConfig is the benchmarks' representative DSE outcome.
func benchTunedConfig() kfusion.Config {
	cfg := kfusion.DefaultConfig()
	cfg.VolumeResolution = 128
	cfg.ComputeSizeRatio = 2
	cfg.IntegrationRate = 2
	cfg.PyramidIterations = [3]int{4, 3, 3}
	return cfg
}

// TestHeadlineXU3Golden pins the headline's device figures on the
// benchmark sequence: the default and the tuned configuration on the XU3
// at its nominal point and at each DVFS point, bit for bit, plus the
// nominal simulated FPS, watts and max ATE in millimetres that the
// Headline_ benchmarks used to report.
func TestHeadlineXU3Golden(t *testing.T) {
	seq := benchSequence(t)
	nominal := device.NewModel(device.OdroidXU3())
	configs := []struct {
		name string
		cfg  kfusion.Config
	}{{"default", kfusion.DefaultConfig()}, {"tuned", benchTunedConfig()}}
	golden := map[string]hypermapper.Metrics{
		"default/nominal":   metricsBits(0x3fc48e4e6ef8dc1f, 0x3fb1400eec22442b, 0x401280d9bd70491c, 0x4031d439d24a901b, false),
		"default/perf":      metricsBits(0x3fc48e4e6ef8dc1f, 0x3fb1400eec22442b, 0x401280d9bd70491c, 0x4031d439d24a901b, false),
		"default/balanced":  metricsBits(0x3fcced3bad73e5e8, 0x3fb1400eec22442b, 0x40045ccb2e0cb79b, 0x402b9c3a83d550f0, false),
		"default/low":       metricsBits(0x3fd40b3c00614ecf, 0x3fb1400eec22442b, 0x3ff9552e1ecf0b61, 0x4027cd3268af40f6, false),
		"default/powersave": metricsBits(0x3fdc6a293edc5899, 0x3fb1400eec22442b, 0x3ff1b9ba95152473, 0x40279bf9ffedf29c, false),
		"tuned/nominal":     metricsBits(0x3f94eb8bef8ceb35, 0x3fa7dd874d4c0395, 0x400039635935fc3b, 0x3ff9f56bc1eff9f9, false),
		"tuned/perf":        metricsBits(0x3f94eb8bef8ceb35, 0x3fa7dd874d4c0395, 0x400039635935fc3b, 0x3ff9f56bc1eff9f9, false),
		"tuned/balanced":    metricsBits(0x3f9a60005fdeab98, 0x3fa7dd874d4c0395, 0x3ff99fc742e3aa5c, 0x3ff47fd29be95517, false),
		"tuned/low":         metricsBits(0x3fa0d2f87ad080b6, 0x3fa7dd874d4c0395, 0x3ff66e19cef79f5e, 0x3ff1f1ae3f2c7f7f, false),
		"tuned/powersave":   metricsBits(0x3fa6476ceb224118, 0x3fa7dd874d4c0395, 0x3ff0f50ab2ceb1c6, 0x3ff1b579236cec93, false),
	}
	readouts := map[string]string{
		"default": "6.23 simFPS 4.63 simW 67.38 maxATE_mm",
		"tuned":   "48.95 simFPS 2.03 simW 46.61 maxATE_mm",
	}
	var sim Simulator
	for _, c := range configs {
		for _, point := range append([]string{"nominal"}, nominal.Points()...) {
			model := nominal
			if point != "nominal" {
				var err error
				if model, err = nominal.AtPoint(point); err != nil {
					t.Fatal(err)
				}
			}
			key := c.name + "/" + point
			m := sim.Evaluate(seq, model, c.cfg)
			if !sameMetrics(m, golden[key]) {
				t.Errorf("%s: %s, golden %+v", key, metricsLiteral(m), golden[key])
			}
			if point != "nominal" {
				continue
			}
			got := fmt.Sprintf("%.2f simFPS %.2f simW %.2f maxATE_mm", 1/m.Runtime, m.Power, m.MaxATE*1000)
			if got != readouts[c.name] {
				t.Errorf("%s: %s, want %s", c.name, got, readouts[c.name])
			}
		}
	}
}

// goldenFig2 is a hand-built feasible exploration whose best
// configuration is the benchmarks' tuned one.
func goldenFig2() *Fig2Result {
	return &Fig2Result{
		Space:           DSESpace(),
		BestFeasible:    hypermapper.Observation{X: hypermapper.Point{128, 2, 0.1, 1e-5, 4, 3, 3, 2, 1}},
		HasBestFeasible: true,
		AccuracyLimit:   0.08,
	}
}

// TestRunHeadlineGolden pins RunHeadline bit for bit on goldenFig2 and
// E1's default trace at quick scale.
func TestRunHeadlineGolden(t *testing.T) {
	seq := render(t, QuickScale())
	head, err := RunHeadline(goldenFig2(), defaultTrace(t, seq), seq)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		got, want hypermapper.Metrics
	}{
		{"Default", head.Default, metricsBits(0x3fc48d5b3c66b89c, 0x3fa664979e3b3796, 0x401280cf21238e9f, 0x4027c47b8d345b7c, false)},
		{"TunedPerf", head.TunedPerf, metricsBits(0x3f94dc6ff98d1f38, 0x3f9fc178c28269da, 0x40002973dbc23316, 0x3ff13d4861e0367e, false)},
		{"TunedLowPower", head.TunedLowPower, metricsBits(0x3fa0c3dc84d0b4b9, 0x3f9fc178c28269da, 0x3ff6581dfd0853e2, 0x3fe7d575522b0424, false)},
	} {
		if !sameMetrics(c.got, c.want) {
			t.Errorf("%s: %s, golden %+v", c.name, metricsLiteral(c.got), c.want)
		}
	}
	if head.TunedPoint != "low" {
		t.Errorf("TunedPoint %q, golden %q", head.TunedPoint, "low")
	}
}

// TestRunHeadlineTracesReplay checks that the traces RunHeadline hands
// on to RunFig3 are the ones behind its figures: replayed on the
// nominal XU3 they give Default and TunedPerf bit for bit.
func TestRunHeadlineTracesReplay(t *testing.T) {
	seq := render(t, QuickScale())
	head, err := RunHeadline(goldenFig2(), defaultTrace(t, seq), seq)
	if err != nil {
		t.Fatal(err)
	}
	nominal := device.NewModel(device.OdroidXU3())
	if m := head.DefaultTrace.Replay(nominal); !sameMetrics(m, head.Default) {
		t.Errorf("default trace replays to %+v, Default %+v", m, head.Default)
	}
	if m := head.TunedTrace.Replay(nominal); !sameMetrics(m, head.TunedPerf) {
		t.Errorf("tuned trace replays to %+v, TunedPerf %+v", m, head.TunedPerf)
	}
}

// TestRunFig3Golden pins the phone sweep of the benchmarks' tuned
// configuration at quick scale: every phone's speed-up and frame rates
// (by digest) and the summary statistics, bit for bit.
func TestRunFig3Golden(t *testing.T) {
	seq := render(t, QuickScale())
	def, err := Simulate(seq, kfusion.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := Simulate(seq, benchTunedConfig())
	if err != nil {
		t.Fatal(err)
	}
	fig3, err := RunFig3(def, tuned, 42)
	if err != nil {
		t.Fatal(err)
	}
	var phones []any
	for _, p := range fig3.Phones {
		phones = append(phones, p.Device, p.Year, p.Speedup, p.DefaultFPS, p.TunedFPS)
	}
	if got, want := bitsDigest(phones...), "e79cb7c0d84bc988"; got != want {
		t.Errorf("per-phone digest %s, golden %s", got, want)
	}
	for _, c := range []struct {
		name string
		got  float64
		want uint64
	}{
		{"Mean", fig3.Mean, 0x401dd72897122e4f},
		{"Median", fig3.Median, 0x401e8a6f61e81da0},
		{"Min", fig3.Min, 0x400c5ac86b7777f8},
		{"Max", fig3.Max, 0x4024f242cb50a45a},
	} {
		if math.Float64bits(c.got) != c.want {
			t.Errorf("%s: %#x, golden %#x", c.name, math.Float64bits(c.got), c.want)
		}
	}
}

// TestRunDecisionMachineGolden pins the decision machine's training data
// at TestRunDecisionMachine's scale: each candidate's max ATE bit for
// bit and every device's choice and frame rate (by digest).
func TestRunDecisionMachineGolden(t *testing.T) {
	scale := QuickScale()
	scale.Frames = 12
	dm, err := RunDecisionMachine(DefaultCandidates(), render(t, scale), 0.1, 42)
	if err != nil {
		t.Fatal(err)
	}
	wantATE := []uint64{0x3fa6a78cc89a6ee2, 0x3f98800740ff8b11, 0x3feec745b2443f61, 0x3fd572dd68b1ed10}
	for i, ate := range dm.CandidateATE {
		if i >= len(wantATE) || math.Float64bits(ate) != wantATE[i] {
			t.Errorf("candidate %d max ATE %#x, golden %v", i, math.Float64bits(ate), wantATE)
		}
	}
	var choices []any
	for _, c := range dm.Choices {
		choices = append(choices, c.Device, c.Year, c.Choice, c.FPS)
	}
	if got, want := bitsDigest(choices...), "3ba72551af650c8f"; got != want {
		t.Errorf("choices digest %s, golden %s", got, want)
	}
}
