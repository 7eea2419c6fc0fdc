// Benchmarks regenerating every figure-level experiment of the paper.
// One bench (or bench family) per experiment id, numbered as
// cmd/experiments numbers them:
//
//	E1/Fig1   BenchmarkFig1_PipelineDefault, BenchmarkFig1_GUIPanes
//	E2/Fig2L  BenchmarkFig2_Evaluate*, BenchmarkFig2_SurrogateFit,
//	          BenchmarkFig2_ActiveLearningStep
//	E3/Fig2R  BenchmarkFig2_KnowledgeExtraction
//	E4/Head   BenchmarkHeadline_DefaultXU3, BenchmarkHeadline_TunedXU3
//	E5/Fig3   BenchmarkFig3_PhoneSweep
//	E6/Base   BenchmarkBaseline_Odometry
//	Ablation  BenchmarkKernel_* (per-kernel costs behind the trade-off)
package slamgo_test

import (
	"math/rand"
	"sync"
	"testing"

	"slamgo/internal/camera"
	"slamgo/internal/core"
	"slamgo/internal/dataset"
	"slamgo/internal/device"
	"slamgo/internal/hypermapper"
	"slamgo/internal/imgproc"
	"slamgo/internal/kfusion"
	"slamgo/internal/math3"
	"slamgo/internal/odometry"
	"slamgo/internal/phones"
	"slamgo/internal/rf"
	"slamgo/internal/slambench"
	"slamgo/internal/tsdf"
)

// ---- shared fixtures (rendered once per process) ----

var (
	seqOnce  sync.Once
	benchSeq *dataset.MemorySequence
)

func sequence(b *testing.B) *dataset.MemorySequence {
	b.Helper()
	seqOnce.Do(func() {
		s, err := dataset.LivingRoomKT(0, dataset.PresetOptions{
			Width: 160, Height: 120, Frames: 24, FPS: 30, Noisy: true, Seed: 42,
		})
		if err != nil {
			panic(err)
		}
		benchSeq = s
	})
	return benchSeq
}

// tunedConfig is a representative DSE outcome: ~4-8× cheaper than the
// default while staying under the accuracy limit at evaluation scale.
func tunedConfig() kfusion.Config {
	cfg := kfusion.DefaultConfig()
	cfg.VolumeResolution = 128
	cfg.ComputeSizeRatio = 2
	cfg.IntegrationRate = 2
	cfg.PyramidIterations = [3]int{4, 3, 3}
	return cfg
}

func simulateOnce(b *testing.B, cfg kfusion.Config) core.Trace {
	b.Helper()
	trace, err := core.Simulate(sequence(b), cfg)
	if err != nil {
		b.Fatal(err)
	}
	return trace
}

// ---- E1 / Figure 1: the instrumented pipeline ----

// BenchmarkFig1_PipelineDefault measures one full pipeline frame
// (preprocess + track + integrate + raycast) under the stock
// configuration — the workload behind the GUI's live metrics.
func BenchmarkFig1_PipelineDefault(b *testing.B) {
	seq := sequence(b)
	f0, _ := seq.Frame(0)
	p, err := kfusion.New(kfusion.DefaultConfig(), seq.Intrinsics(), f0.GroundTruth)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, _ := seq.Frame(i % seq.Len())
		if _, err := p.ProcessFrame(f.Depth); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig1_GUIPanes measures rendering the four GUI panes of one
// frame (depth colormap, track status, shaded model view, 2×2 mosaic).
func BenchmarkFig1_GUIPanes(b *testing.B) {
	seq := sequence(b)
	f0, _ := seq.Frame(0)
	cfg := tunedConfig()
	p, err := kfusion.New(cfg, seq.Intrinsics(), f0.GroundTruth)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := p.ProcessFrame(f0.Depth); err != nil {
		b.Fatal(err)
	}
	ref, ok := p.Reference()
	if !ok {
		b.Fatal("no reference")
	}
	light := math3.V3(-0.3, 0.8, 0.5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		depth := slambench.DepthToRGB(f0.Depth)
		model := slambench.NormalsToRGB(ref.Normals, light)
		status := slambench.TrackStatusToRGB(ref.Vertices, true)
		if _, err := slambench.Mosaic(model, status, model, status); err != nil {
			b.Fatal(err)
		}
		_ = depth
	}
}

// ---- E2 / Figure 2 (left): the DSE evaluations ----

// BenchmarkFig2_EvaluateDefault measures one full DSE evaluation (whole
// sequence on the XU3 model) of the default configuration — the
// expensive black box the active learner minimises calls to.
func BenchmarkFig2_EvaluateDefault(b *testing.B) {
	seq := sequence(b)
	model := device.NewModel(device.OdroidXU3())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := core.Evaluate(seq, model, kfusion.DefaultConfig())
		if m.Failed {
			b.Fatal("default evaluation failed")
		}
	}
}

// BenchmarkFig2_EvaluateDefaultReused is EvaluateDefault through a
// core.Simulator, the path campaigns and Fig. 2 explorations take: after
// a warm-up simulation outside the timer, each simulation resets a
// reused pipeline instead of allocating a 256³ volume.
func BenchmarkFig2_EvaluateDefaultReused(b *testing.B) {
	seq := sequence(b)
	model := device.NewModel(device.OdroidXU3())
	var sim core.Simulator
	sim.Evaluate(seq, model, kfusion.DefaultConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := sim.Evaluate(seq, model, kfusion.DefaultConfig())
		if m.Failed {
			b.Fatal("default evaluation failed")
		}
	}
}

// sweepConfigs are eight fixed design points, two at each compute size
// ratio, spread over the other DSE axes.
func sweepConfigs() []kfusion.Config {
	type point struct {
		ratio, res, intRate, trackRate int
		mu                             float64
		iters                          [3]int
	}
	points := []point{
		{1, 128, 1, 1, 0.1, [3]int{10, 5, 4}},
		{1, 64, 2, 1, 0.2, [3]int{5, 3, 2}},
		{2, 256, 1, 1, 0.075, [3]int{6, 4, 3}},
		{2, 96, 3, 2, 0.15, [3]int{4, 3, 3}},
		{4, 256, 2, 1, 0.1, [3]int{8, 4, 0}},
		{4, 64, 1, 1, 0.3, [3]int{3, 2, 1}},
		{8, 128, 1, 1, 0.2, [3]int{5, 0, 0}},
		{8, 64, 2, 2, 0.25, [3]int{6, 3, 2}},
	}
	cfgs := make([]kfusion.Config, len(points))
	for i, pt := range points {
		cfg := kfusion.DefaultConfig()
		cfg.ComputeSizeRatio, cfg.VolumeResolution = pt.ratio, pt.res
		cfg.IntegrationRate, cfg.TrackingRate = pt.intRate, pt.trackRate
		cfg.Mu, cfg.PyramidIterations = pt.mu, pt.iters
		cfgs[i] = cfg
	}
	return cfgs
}

var sweepSink hypermapper.Metrics

// BenchmarkFig2_EvaluateSweepReused simulates sweepConfigs through one
// core.Simulator, as an exploration does: after a warm-up sweep outside
// the timer, every simulation reuses a pipeline and reads each frame's
// depth front end from the simulator's memo. One op is one sweep of
// eight simulations.
func BenchmarkFig2_EvaluateSweepReused(b *testing.B) {
	seq := sequence(b)
	model := device.NewModel(device.OdroidXU3())
	cfgs := sweepConfigs()
	var sim core.Simulator
	sweep := func() {
		for _, cfg := range cfgs {
			sweepSink = sim.Evaluate(seq, model, cfg)
		}
	}
	sweep()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep()
	}
}

// BenchmarkFig2_EvaluateTuned is the same black box under the tuned
// configuration; the ratio to EvaluateDefault is the wall-clock shadow
// of the headline speed-up.
func BenchmarkFig2_EvaluateTuned(b *testing.B) {
	seq := sequence(b)
	model := device.NewModel(device.OdroidXU3())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := core.Evaluate(seq, model, tunedConfig())
		if m.Failed {
			b.Fatal("tuned evaluation failed")
		}
	}
}

// BenchmarkFig2_SurrogateFit measures fitting the random-forest
// surrogate on a DSE observation set (per active-learning iteration).
func BenchmarkFig2_SurrogateFit(b *testing.B) {
	space := core.DSESpace()
	rng := rand.New(rand.NewSource(1))
	X := make([][]float64, 60)
	y := make([]float64, 60)
	for i := range X {
		pt := space.Sample(rng)
		X[i] = pt
		y[i] = pt[0]*1e-4 + pt[1]*0.01 + rng.Float64()*0.01
	}
	cfg := rf.DefaultForestConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rf.FitForest(X, y, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2_ActiveLearningStep measures one surrogate-guided
// candidate-selection round (prediction + acquisition over the pool),
// with the expensive evaluator stubbed by the analytic surface.
func BenchmarkFig2_ActiveLearningStep(b *testing.B) {
	space := core.DSESpace()
	iVR := space.Index("volume_resolution")
	iCSR := space.Index("compute_size_ratio")
	eval := func(pt hypermapper.Point) hypermapper.Metrics {
		vr, csr := pt[iVR], pt[iCSR]
		return hypermapper.Metrics{
			Runtime: 1e-9*vr*vr*vr + 0.02/csr,
			MaxATE:  0.01 + 4/vr + 0.01*csr,
			Power:   1 + 1e-8*vr*vr*vr,
		}
	}
	cfg := hypermapper.DefaultOptimizerConfig()
	cfg.RandomSamples = 15
	cfg.ActiveIterations = 1
	cfg.BatchPerIteration = 5
	cfg.CandidatePool = 1000
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		if _, err := hypermapper.Optimize(space, eval, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2_FlatPredictBatch measures the flat surrogate inference
// engine in isolation: one fitted forest compiled to rf.FlatForest
// scoring a full candidate pool (1000 rows) through PredictBatch into
// reused buffers — the per-iteration inner loop of the active learner.
func BenchmarkFig2_FlatPredictBatch(b *testing.B) {
	space := core.DSESpace()
	rng := rand.New(rand.NewSource(2))
	X := make([][]float64, 60)
	y := make([]float64, 60)
	for i := range X {
		pt := space.Sample(rng)
		X[i] = pt
		y[i] = pt[0]*1e-4 + pt[1]*0.01 + rng.Float64()*0.01
	}
	fcfg := rf.DefaultForestConfig()
	fcfg.Tree.MTry = len(space.Params)
	forest, err := rf.FitForest(X, y, fcfg)
	if err != nil {
		b.Fatal(err)
	}
	flat := forest.Flatten()
	const pool = 1000
	d := flat.Dims()
	Xm := make([]float64, pool*d)
	for i := 0; i < pool; i++ {
		space.SampleInto(Xm[i*d:(i+1)*d], rng)
	}
	mean := make([]float64, pool)
	std := make([]float64, pool)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		flat.PredictBatch(Xm, mean, std, 0)
	}
}

// BenchmarkFig2_PointerPredictPool is the contrast: the same pool
// scored through the pointer-tree Forest one candidate at a time (the
// shape of the old candidate scorer). Note the pointer walk also got
// faster this PR — the fitting arena lays its nodes out contiguously —
// so on a single core the two are near parity; the flat engine's edge
// is the allocation-free batched API and PredictBatch's multicore
// scaling, which the per-candidate pointer path cannot offer.
func BenchmarkFig2_PointerPredictPool(b *testing.B) {
	space := core.DSESpace()
	rng := rand.New(rand.NewSource(2))
	X := make([][]float64, 60)
	y := make([]float64, 60)
	for i := range X {
		pt := space.Sample(rng)
		X[i] = pt
		y[i] = pt[0]*1e-4 + pt[1]*0.01 + rng.Float64()*0.01
	}
	fcfg := rf.DefaultForestConfig()
	fcfg.Tree.MTry = len(space.Params)
	forest, err := rf.FitForest(X, y, fcfg)
	if err != nil {
		b.Fatal(err)
	}
	const pool = 1000
	pts := make([]hypermapper.Point, pool)
	for i := range pts {
		pts[i] = space.Sample(rng)
	}
	mean := make([]float64, pool)
	std := make([]float64, pool)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, pt := range pts {
			mean[j], std[j] = forest.PredictWithStd(pt)
		}
	}
}

// ---- E3 / Figure 2 (right): knowledge extraction ----

// BenchmarkFig2_KnowledgeExtraction measures fitting the knowledge
// decision tree and extracting its rules from 200 DSE observations.
func BenchmarkFig2_KnowledgeExtraction(b *testing.B) {
	space := core.DSESpace()
	rng := rand.New(rand.NewSource(3))
	var obs []hypermapper.Observation
	for i := 0; i < 200; i++ {
		pt := space.Sample(rng)
		vr := pt[space.Index("volume_resolution")]
		csr := pt[space.Index("compute_size_ratio")]
		obs = append(obs, hypermapper.Observation{X: pt, M: hypermapper.Metrics{
			Runtime: 1e-9*vr*vr*vr + 0.02/csr,
			MaxATE:  0.01 + 4/vr + 0.01*csr,
			Power:   1 + 1e-8*vr*vr*vr,
		}})
	}
	label, names := hypermapper.PaperClasses(0.05, 30, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := hypermapper.Knowledge(space, obs, label, names, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E4 / headline: default vs tuned on the XU3 model ----

var headlineSink hypermapper.Metrics

// benchHeadline times replaying one simulation's trace on the XU3 model.
// The figures it yields (simulated FPS, watts, max ATE) are pinned by
// internal/core's TestHeadlineXU3Golden.
func benchHeadline(b *testing.B, cfg kfusion.Config) {
	trace := simulateOnce(b, cfg)
	model := device.NewModel(device.OdroidXU3())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		headlineSink = trace.Replay(model)
	}
}

// BenchmarkHeadline_DefaultXU3 replays the stock configuration on the
// XU3 (the "state of the art" baseline).
func BenchmarkHeadline_DefaultXU3(b *testing.B) { benchHeadline(b, kfusion.DefaultConfig()) }

// BenchmarkHeadline_TunedXU3 replays the tuned configuration on the XU3;
// its ratio to DefaultXU3 is the paper's 4.8×/2.8× claim.
func BenchmarkHeadline_TunedXU3(b *testing.B) { benchHeadline(b, tunedConfig()) }

// ---- E5 / Figure 3: the 83-phone sweep ----

// BenchmarkFig3_PhoneSweep measures replaying the default and the tuned
// configuration's traces on every phone of the catalogue (the sweep
// after the two simulations).
func BenchmarkFig3_PhoneSweep(b *testing.B) {
	def := simulateOnce(b, kfusion.DefaultConfig())
	tuned := simulateOnce(b, tunedConfig())
	cat := phones.Catalogue(42)
	var mean float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mean = 0
		for _, p := range cat {
			m := device.NewModel(p)
			mean += def.Replay(m).Runtime / tuned.Replay(m).Runtime
		}
		mean /= float64(len(cat))
	}
	b.ReportMetric(mean, "meanSpeedup")
}

// ---- E6: the odometry baseline ----

// BenchmarkBaseline_Odometry measures one frame of the frame-to-frame
// ICP baseline (the cross-algorithm comparison of the methodology).
func BenchmarkBaseline_Odometry(b *testing.B) {
	seq := sequence(b)
	f0, _ := seq.Frame(0)
	cfg := odometry.DefaultConfig()
	tr, err := odometry.New(cfg, seq.Intrinsics(), f0.GroundTruth)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, _ := seq.Frame(i % seq.Len())
		if _, err := tr.ProcessFrame(f.Depth); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Ablations: the per-kernel costs behind the trade-off ----

func benchIntegrate(b *testing.B, res int) {
	seq := sequence(b)
	f0, _ := seq.Frame(0)
	in := seq.Intrinsics()
	v := tsdf.New(res, 5.6, math3.V3(-2.8, -1.5, -2.8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Integrate(f0.Depth, f0.GroundTruth, in, 0.1, 100)
	}
}

// BenchmarkKernel_Integrate64 measures TSDF integration at 64³ — the
// fast end of the paper's dominant parameter.
func BenchmarkKernel_Integrate64(b *testing.B) { benchIntegrate(b, 64) }

// BenchmarkKernel_Integrate128 measures TSDF integration at 128³.
func BenchmarkKernel_Integrate128(b *testing.B) { benchIntegrate(b, 128) }

// BenchmarkKernel_Integrate256 measures TSDF integration at 256³ — the
// accurate, slow end (the stock configuration).
func BenchmarkKernel_Integrate256(b *testing.B) { benchIntegrate(b, 256) }

// BenchmarkKernel_Raycast measures surface extraction from a populated
// 128³ volume at compute resolution.
func BenchmarkKernel_Raycast(b *testing.B) {
	seq := sequence(b)
	f0, _ := seq.Frame(0)
	in := seq.Intrinsics()
	v := tsdf.New(128, 5.6, math3.V3(-2.8, -1.5, -2.8))
	v.Integrate(f0.Depth, f0.GroundTruth, in, 0.1, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := v.Raycast(f0.GroundTruth, in, 0.1, 0.1, 10)
		if res.Vertices.ValidCount() == 0 {
			b.Fatal("raycast found nothing")
		}
		res.Release()
	}
}

// BenchmarkKernel_Raycast256 measures surface extraction from the stock
// 256³ volume after it has fused every fourth frame of the sequence,
// raycast from the last fused pose, as the pipeline does each frame.
func BenchmarkKernel_Raycast256(b *testing.B) {
	seq := sequence(b)
	in := seq.Intrinsics()
	v := tsdf.New(256, 5.6, math3.V3(-2.8, -1.5, -2.8))
	var pose math3.SE3
	for i := 0; i < seq.Len(); i += 4 {
		f, _ := seq.Frame(i)
		v.Integrate(f.Depth, f.GroundTruth, in, 0.1, 100)
		pose = f.GroundTruth
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := v.Raycast(pose, in, 0.1, 0.1, 5.6*1.8)
		if res.Vertices.ValidCount() == 0 {
			b.Fatal("raycast found nothing")
		}
		res.Release()
	}
}

// BenchmarkKernel_BilateralFilter measures the depth denoising kernel
// with a freshly allocated destination per frame (the pre-pool usage).
func BenchmarkKernel_BilateralFilter(b *testing.B) {
	seq := sequence(b)
	f0, _ := seq.Frame(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		imgproc.BilateralFilter(f0.Depth, 2, 4, 0.1)
	}
}

// BenchmarkKernel_BilateralFilterPooled measures the kernel the way the
// pipeline now runs it: destination drawn from a BufferPool, spatial
// kernel cached — the steady state allocates (nearly) nothing.
func BenchmarkKernel_BilateralFilterPooled(b *testing.B) {
	seq := sequence(b)
	f0, _ := seq.Frame(0)
	var pool imgproc.BufferPool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst := pool.Depth(f0.Depth.Width, f0.Depth.Height)
		imgproc.BilateralFilterInto(dst, f0.Depth, 2, 4, 0.1)
		pool.PutDepth(dst)
	}
}

// BenchmarkKernel_ICP measures one multi-iteration ICP solve at compute
// resolution against a raycast reference.
func BenchmarkKernel_ICP(b *testing.B) {
	seq := sequence(b)
	f0, _ := seq.Frame(0)
	cfg := tunedConfig()
	p, err := kfusion.New(cfg, seq.Intrinsics(), f0.GroundTruth)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := p.ProcessFrame(f0.Depth); err != nil {
		b.Fatal(err)
	}
	f1, _ := seq.Frame(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.ProcessFrame(f1.Depth); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernel_SyntheticRender measures rendering one synthetic depth
// frame (the dataset substrate).
func BenchmarkKernel_SyntheticRender(b *testing.B) {
	in := camera.Kinect640().ScaledTo(160, 120)
	_ = in
	seq := sequence(b)
	_ = seq
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := dataset.LivingRoomKT(0, dataset.PresetOptions{
			Width: 160, Height: 120, Frames: 1, FPS: 30, Noisy: false, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		_ = s
	}
}
