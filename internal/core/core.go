// Package core wires the whole reproduction together: it defines the
// paper's design space over KinectFusion's algorithmic parameters, the
// evaluator that runs the real pipeline on the modelled device, and one
// entry point per figure/claim of the paper, each on a sequence the
// caller renders once:
//
//   - Fig1: run the default configuration and collect the GUI metrics.
//   - Fig2: random sampling + active learning over the design space
//     (left pane: runtime-vs-MaxATE scatter) and decision-tree knowledge
//     extraction (right pane).
//   - Headline: default vs tuned configuration on the ODROID-XU3 model —
//     the 4.8× execution-time and 2.8× power improvements.
//   - Fig3: the headline's default and tuned traces replayed across the
//     83-phone catalogue, reported as per-device speed-ups.
package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"

	"slamgo/internal/dataset"
	"slamgo/internal/device"
	"slamgo/internal/hypermapper"
	"slamgo/internal/imgproc"
	"slamgo/internal/kfusion"
	"slamgo/internal/slambench"
)

// Scale fixes the evaluation workload. The paper uses ICL-NUIM 640×480
// sequences; pure-Go experiments default to QVGA with fewer frames, which
// preserves every trade-off shape while keeping wall-clock reasonable.
type Scale struct {
	Width, Height int
	Frames        int
	Noisy         bool
	Seed          int64
	KT            int // which kt trajectory (living room 0-3, office 0-1)
	// Office selects the office-room scene instead of the living room.
	Office bool
}

// DefaultScale is the standard experiment workload.
func DefaultScale() Scale {
	return Scale{Width: 320, Height: 240, Frames: 40, Noisy: true, Seed: 42, KT: 0}
}

// QuickScale is a reduced workload for tests and benchmarks.
func QuickScale() Scale {
	return Scale{Width: 160, Height: 120, Frames: 16, Noisy: false, Seed: 42, KT: 0}
}

// CacheKey is the canonical content address of the Scale's rendered
// sequence: a hash of every input that determines the frames — scene,
// trajectory, resolution, frame count, noise and seed, plus the FPS
// Sequence hard-codes and a render-semantics version to bump whenever
// the renderer's output changes for identical inputs. Two Scales with
// equal keys render bit-identical sequences (the determinism regression
// test pins this), which is what lets the rendered-sequence cache share
// one artifact across cells, stages and cooperating processes.
func (s Scale) CacheKey() string {
	h := sha256.New()
	scene := "livingroom"
	if s.Office {
		scene = "office"
	}
	fmt.Fprintf(h, "render-v1|scene=%s|kt=%d|w=%d|h=%d|frames=%d|fps=30|noisy=%t|seed=%d",
		scene, s.KT, s.Width, s.Height, s.Frames, s.Noisy, s.Seed)
	return "seq-" + hex.EncodeToString(h.Sum(nil))[:24]
}

// Sequence renders the scale's synthetic sequence.
func (s Scale) Sequence() (*dataset.MemorySequence, error) {
	opts := dataset.PresetOptions{
		Width: s.Width, Height: s.Height, Frames: s.Frames,
		FPS: 30, Noisy: s.Noisy, Seed: s.Seed,
	}
	if s.Office {
		return dataset.OfficeKT(s.KT, opts)
	}
	return dataset.LivingRoomKT(s.KT, opts)
}

// DSESpace returns the algorithmic parameter space of the paper's
// design-space exploration (PACT'16 / iWAPT'17 parameters).
func DSESpace() *hypermapper.Space {
	return &hypermapper.Space{Params: []hypermapper.Parameter{
		{Name: "volume_resolution", Kind: hypermapper.Ordinal,
			Choices: []float64{64, 96, 128, 192, 256}},
		{Name: "compute_size_ratio", Kind: hypermapper.Ordinal,
			Choices: []float64{1, 2, 4, 8}},
		{Name: "mu_distance", Kind: hypermapper.Ordinal,
			Choices: []float64{0.025, 0.05, 0.1, 0.2, 0.3}},
		{Name: "icp_threshold", Kind: hypermapper.Ordinal,
			Choices: []float64{1e-6, 1e-5, 1e-4, 1e-3}},
		{Name: "pyramid_iter_l0", Kind: hypermapper.Integer, Min: 0, Max: 10},
		{Name: "pyramid_iter_l1", Kind: hypermapper.Integer, Min: 0, Max: 5},
		{Name: "pyramid_iter_l2", Kind: hypermapper.Integer, Min: 0, Max: 4},
		{Name: "integration_rate", Kind: hypermapper.Ordinal,
			Choices: []float64{1, 2, 3, 5, 8}},
		{Name: "tracking_rate", Kind: hypermapper.Ordinal,
			Choices: []float64{1, 2, 5}},
	}}
}

// ConfigFromPoint maps a design-space point onto a pipeline Config,
// starting from the default configuration.
func ConfigFromPoint(space *hypermapper.Space, pt hypermapper.Point) (kfusion.Config, error) {
	cfg := kfusion.DefaultConfig()
	get := func(name string) (float64, error) {
		i := space.Index(name)
		if i < 0 || i >= len(pt) {
			return 0, fmt.Errorf("core: point missing parameter %q", name)
		}
		return pt[i], nil
	}
	var err error
	read := func(name string) float64 {
		v, e := get(name)
		if e != nil && err == nil {
			err = e
		}
		return v
	}
	cfg.VolumeResolution = int(read("volume_resolution"))
	cfg.ComputeSizeRatio = int(read("compute_size_ratio"))
	cfg.Mu = read("mu_distance")
	cfg.ICPThreshold = read("icp_threshold")
	cfg.PyramidIterations = [3]int{
		int(read("pyramid_iter_l0")),
		int(read("pyramid_iter_l1")),
		int(read("pyramid_iter_l2")),
	}
	cfg.IntegrationRate = int(read("integration_rate"))
	cfg.TrackingRate = int(read("tracking_rate"))
	if err != nil {
		return kfusion.Config{}, err
	}
	// A point with all pyramid levels disabled is representable in the
	// space but meaningless: give it the minimal tracker.
	if cfg.PyramidIterations == [3]int{0, 0, 0} {
		cfg.PyramidIterations = [3]int{1, 0, 0}
	}
	return cfg, cfg.Validate()
}

// DefaultPoint encodes the stock KinectFusion configuration as a design
// point (the "default configuration" marker of Figure 2).
func DefaultPoint(space *hypermapper.Space) hypermapper.Point {
	def := kfusion.DefaultConfig()
	pt := make(hypermapper.Point, len(space.Params))
	set := func(name string, v float64) {
		if i := space.Index(name); i >= 0 {
			pt[i] = v
		}
	}
	set("volume_resolution", float64(def.VolumeResolution))
	set("compute_size_ratio", float64(def.ComputeSizeRatio))
	set("mu_distance", def.Mu)
	set("icp_threshold", def.ICPThreshold)
	set("pyramid_iter_l0", float64(def.PyramidIterations[0]))
	set("pyramid_iter_l1", float64(def.PyramidIterations[1]))
	set("pyramid_iter_l2", float64(def.PyramidIterations[2]))
	set("integration_rate", float64(def.IntegrationRate))
	set("tracking_rate", float64(def.TrackingRate))
	return pt
}

// Trace is what one simulation leaves that no device model has touched:
// each frame's arithmetic cost, the run's max ATE and the share of
// frames tracked. Tracking and accuracy never see the device, so one
// trace replays on any number of device models without running the
// pipeline again.
type Trace struct {
	Costs           []imgproc.Cost
	MaxATE          float64
	TrackedFraction float64
}

// sensorPeriod is the frame period traces replay under: the harness's
// default 30 FPS sensor rate, which every simulation runs at.
const sensorPeriod = 1.0 / 30

// Failed reports a run that lost tracking on most frames; the paper's
// DSE similarly discards broken runs.
func (t Trace) Failed() bool { return t.TrackedFraction < 0.5 }

// Replay executes the trace's frames on model and returns the DSE
// metrics, bit for bit those of Evaluate on the same model.
func (t Trace) Replay(model *device.Model) hypermapper.Metrics {
	run := device.Run{Model: model, Period: sensorPeriod}
	for _, c := range t.Costs {
		run.Execute(c)
	}
	st := run.Stats()
	return hypermapper.Metrics{
		Runtime: st.MeanLatency,
		MaxATE:  t.MaxATE,
		Power:   st.MeanPower,
		Energy:  st.TotalEnergy,
		Failed:  t.Failed(),
	}
}

// Simulate runs one configuration over a sequence and returns its trace.
// The simulation allocates its own pipeline and preprocesses every frame
// itself; a run of many simulations should go through a Simulator, which
// reuses pipelines and shares preprocessed frames.
func Simulate(seq dataset.Sequence, cfg kfusion.Config) (Trace, error) {
	return simulate(nil, seq, cfg)
}

// Evaluate simulates one configuration over a sequence and replays the
// trace on the modelled device; a simulation that errs is Failed.
func Evaluate(seq dataset.Sequence, model *device.Model, cfg kfusion.Config) hypermapper.Metrics {
	return evaluate(nil, seq, model, cfg)
}

// Simulator runs the simulations of one run (a campaign, a Fig. 2
// exploration) and reuses pipeline storage between them: each simulation
// draws its pipeline from the simulator's free list and gives it back
// when it ends, and every simulation reads each frame's preprocessed
// depth pyramid from the list's memo instead of filtering the frame
// again (see kfusion.Pipelines). Its metrics are bit for bit those of
// Evaluate. The storage and the memo live as long as the Simulator, so
// scope one to a run and drop it when the run ends. The zero value is
// ready and safe for concurrent use.
type Simulator struct {
	pipes kfusion.Pipelines
}

// Evaluate is core.Evaluate on a reused pipeline.
func (s *Simulator) Evaluate(seq dataset.Sequence, model *device.Model, cfg kfusion.Config) hypermapper.Metrics {
	return evaluate(&s.pipes, seq, model, cfg)
}

// NewEvaluator binds a sequence and device model into a hypermapper
// Evaluator over the DSE space.
func (s *Simulator) NewEvaluator(space *hypermapper.Space, seq dataset.Sequence, model *device.Model) hypermapper.Evaluator {
	return func(pt hypermapper.Point) hypermapper.Metrics {
		cfg, err := ConfigFromPoint(space, pt)
		if err != nil {
			return hypermapper.Metrics{Failed: true}
		}
		return s.Evaluate(seq, model, cfg)
	}
}

// simulate runs one simulation on a pipeline drawn from pipes (nil
// allocates) and gives the pipeline back when the run ends.
func simulate(pipes *kfusion.Pipelines, seq dataset.Sequence, cfg kfusion.Config) (Trace, error) {
	sys := slambench.NewKFusionFrom(pipes, cfg, seq)
	sum, err := (&slambench.Runner{}).Run(sys, seq)
	sys.Release()
	if err != nil {
		return Trace{}, err
	}
	return traceOf(sum), nil
}

// traceOf keeps the device-free part of a run summary: each frame's
// cost, the max ATE and the tracked share.
func traceOf(sum *slambench.Summary) Trace {
	t := Trace{
		Costs:           make([]imgproc.Cost, len(sum.Records)),
		MaxATE:          sum.ATE.Max,
		TrackedFraction: sum.TrackedFraction,
	}
	for i, rec := range sum.Records {
		t.Costs[i] = rec.Cost
	}
	return t
}

func evaluate(pipes *kfusion.Pipelines, seq dataset.Sequence, model *device.Model, cfg kfusion.Config) hypermapper.Metrics {
	t, err := simulate(pipes, seq, cfg)
	if err != nil {
		return hypermapper.Metrics{Failed: true}
	}
	return t.Replay(model)
}

// ExploreOptions configure Simulator.Explore.
type ExploreOptions struct {
	// RandomSamples, ActiveIterations and BatchPerIteration budget the
	// optimizer; zero keeps hypermapper.DefaultOptimizerConfig's value.
	RandomSamples, ActiveIterations, BatchPerIteration int
	// AccuracyLimit is the max-ATE bound (metres) under which the
	// exploration minimises runtime.
	AccuracyLimit float64
	Seed          int64
	// Workers bounds how many configurations are simulated at once and
	// the surrogates' parallelism (0 means GOMAXPROCS). The exploration
	// is identical for any value.
	Workers int
	// FidelityStride > 1 turns on the multi-fidelity ladder: every batch
	// is screened on the sequence subsampled by this stride, and only the
	// most promising PromoteFraction of it (default 0.25) runs on the
	// full sequence. The ranking is constraint-aware: failed runs rank
	// last, runs over the accuracy limit behind every feasible one. The
	// promoted runs are the full-fidelity spend and the screening runs
	// the low-fidelity spend.
	FidelityStride  int
	PromoteFraction float64
	// Seeder and Prior warm-start the optimizer (see
	// hypermapper.OptimizerConfig).
	Seeder hypermapper.Seeder
	Prior  hypermapper.Prior
	// Memo, when non-nil, builds each rung's memo from the rung's
	// simulating evaluator; stride is the rung's subsampling of the
	// sequence (1 for the full sequence). Nil gets a plain
	// hypermapper.NewMemoEvaluator.
	Memo func(stride int, eval hypermapper.Evaluator) *hypermapper.MemoEvaluator
	Log  func(string)
}

// Exploration is the outcome of Simulator.Explore.
type Exploration struct {
	Result *hypermapper.Result
	// Eval is the memoized evaluator of the full sequence, for point
	// queries (a random baseline, the default marker) that should share
	// the exploration's cache.
	Eval hypermapper.Evaluator
	// FullEvals and LowEvals count the simulations spent on the full
	// sequence and on screening runs.
	FullEvals, LowEvals int
	// Best is the fastest observation within the accuracy limit; HasBest
	// is false when there is none.
	Best    hypermapper.Observation
	HasBest bool
}

// Explore is the paper's constrained design-space exploration of space
// on a sequence and device model: random seeding, then active learning
// that minimises runtime subject to max ATE ≤ AccuracyLimit, with every
// simulation memoized so no configuration runs twice on one rung. It is
// the one recipe behind Fig. 2 and the campaign's cell explorations.
func (s *Simulator) Explore(space *hypermapper.Space, seq dataset.Sequence, model *device.Model, opts ExploreOptions) (*Exploration, error) {
	rung := func(stride int) hypermapper.Evaluator {
		eval := s.NewEvaluator(space, slambench.Subsample(seq, stride), model)
		if opts.Memo == nil {
			return hypermapper.NewMemoEvaluator(eval).Evaluate
		}
		return opts.Memo(stride, eval).Evaluate
	}
	ex := &Exploration{Eval: rung(1)}

	cfg := hypermapper.DefaultOptimizerConfig()
	if opts.RandomSamples > 0 {
		cfg.RandomSamples = opts.RandomSamples
	}
	if opts.ActiveIterations > 0 {
		cfg.ActiveIterations = opts.ActiveIterations
	}
	if opts.BatchPerIteration > 0 {
		cfg.BatchPerIteration = opts.BatchPerIteration
	}
	cfg.Seed, cfg.Workers, cfg.Log = opts.Seed, opts.Workers, opts.Log
	cfg.Seeder, cfg.Prior = opts.Seeder, opts.Prior
	cfg.ConstraintObjective = 1 // MaxATE
	cfg.ConstraintLimit = opts.AccuracyLimit
	var ladder *hypermapper.MultiFidelity
	if opts.FidelityStride > 1 {
		limit := opts.AccuracyLimit
		ladder = &hypermapper.MultiFidelity{
			Low:             rung(opts.FidelityStride),
			High:            ex.Eval,
			PromoteFraction: opts.PromoteFraction,
			Rank: func(m hypermapper.Metrics) float64 {
				switch {
				case m.Failed:
					return math.Inf(1)
				case m.MaxATE > limit:
					// Infeasible at low fidelity: rank behind every
					// feasible candidate, closest to the bound first.
					return 1e6 + (m.MaxATE - limit)
				}
				return m.Runtime
			},
			Workers: opts.Workers,
		}
		cfg.BatchEval = ladder
	}

	res, err := hypermapper.Optimize(space, ex.Eval, cfg)
	if err != nil {
		return nil, err
	}
	ex.Result = res
	if ladder != nil {
		ex.LowEvals, ex.FullEvals = ladder.Stats()
	} else {
		ex.FullEvals = len(res.Observations)
	}
	ex.Best, ex.HasBest = hypermapper.Best(res.Observations,
		hypermapper.AccuracyLimit(opts.AccuracyLimit),
		func(m hypermapper.Metrics) float64 { return m.Runtime })
	return ex, nil
}
