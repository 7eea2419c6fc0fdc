// Package core wires the whole reproduction together: it defines the
// paper's design space over KinectFusion's algorithmic parameters, the
// evaluator that runs the real pipeline on the modelled device, and one
// entry point per figure/claim of the paper:
//
//   - Fig1: run the default configuration and collect the GUI metrics.
//   - Fig2: random sampling + active learning over the design space
//     (left pane: runtime-vs-MaxATE scatter) and decision-tree knowledge
//     extraction (right pane).
//   - Headline: default vs tuned configuration on the ODROID-XU3 model —
//     the 4.8× execution-time and 2.8× power improvements.
//   - Fig3: the tuned configuration replayed across the 83-phone
//     catalogue, reported as per-device speed-ups.
package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"

	"slamgo/internal/dataset"
	"slamgo/internal/device"
	"slamgo/internal/hypermapper"
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

// Evaluate runs one configuration over a sequence on the modelled device
// and returns the DSE metrics. Runs that lose tracking on most frames
// are flagged Failed (the paper's DSE similarly discards broken runs).
// The simulation allocates its own pipeline and preprocesses every frame
// itself; a run of many simulations should go through a Simulator, which
// reuses pipelines and shares preprocessed frames.
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

// evaluate runs one simulation on a pipeline drawn from pipes (nil
// allocates) and gives the pipeline back when the run ends.
func evaluate(pipes *kfusion.Pipelines, seq dataset.Sequence, model *device.Model, cfg kfusion.Config) hypermapper.Metrics {
	sys := slambench.NewKFusionFrom(pipes, cfg, seq)
	runner := &slambench.Runner{Model: model}
	sum, err := runner.Run(sys, seq)
	sys.Release()
	if err != nil {
		return hypermapper.Metrics{Failed: true}
	}
	m := hypermapper.Metrics{
		Runtime: sum.SimMeanLatency,
		MaxATE:  sum.ATE.Max,
		Power:   sum.SimMeanPower,
		Energy:  sum.SimTotalEnergy,
	}
	if sum.TrackedFraction < 0.5 {
		m.Failed = true
	}
	return m
}

// FidelityOptions configure the multi-fidelity evaluation ladder.
type FidelityOptions struct {
	// Stride subsamples the sequence for the low-fidelity pass; values
	// ≤ 1 disable the ladder (every evaluation runs at full fidelity).
	Stride int
	// PromoteFraction is the share of each batch promoted to a
	// full-fidelity run (default 0.25).
	PromoteFraction float64
	// AccuracyLimit, when > 0, makes the promotion ranking
	// constraint-aware: candidates whose low-fidelity max ATE exceeds
	// the limit rank behind every feasible one.
	AccuracyLimit float64
	// Workers bounds the ladder's evaluation parallelism.
	Workers int
	// WrapEval, when non-nil, wraps each rung's base evaluator before
	// it is memoized — fidelity is "full" or "low". The campaign
	// engine's simulation-counting instrumentation plugs in here;
	// because the wrap sits under the memo, cache hits never pass
	// through it.
	WrapEval func(fidelity string, eval hypermapper.Evaluator) hypermapper.Evaluator
	// Memo, when non-nil, constructs each rung's memo evaluator from
	// its (already wrapped) base evaluator — fidelity is "full" or
	// "low". The campaign engine plugs in here to back both rungs with
	// the persistent evaluation store (a full-fidelity rung keyed at
	// stride 1, a low rung at the ladder's stride); nil gets a plain
	// in-memory hypermapper.NewMemoEvaluator.
	Memo func(fidelity string, eval hypermapper.Evaluator) *hypermapper.MemoEvaluator
}

// FidelityRank is the constraint-aware promotion ranking of the
// multi-fidelity ladder (lower is more promising): failed runs rank
// last, candidates whose low-fidelity max ATE exceeds the limit rank
// behind every feasible one (closest to the bound first), and feasible
// candidates rank by runtime. It is shared by the intra-cell ladder
// (NewMultiFidelityEvaluator) and the campaign engine's cell
// explorations so both promote identically.
func FidelityRank(limit float64) func(hypermapper.Metrics) float64 {
	return func(m hypermapper.Metrics) float64 {
		switch {
		case m.Failed:
			return math.Inf(1)
		case m.MaxATE > limit:
			// Infeasible at low fidelity: rank behind every feasible
			// candidate, closest to the bound first.
			return 1e6 + (m.MaxATE - limit)
		default:
			return m.Runtime
		}
	}
}

// NewMultiFidelityEvaluator builds the evaluation ladder over the DSE
// space: a memoized low-fidelity evaluator on the stride-subsampled
// sequence screens every candidate, and a memoized full-fidelity
// evaluator measures only the promoted share of each batch. Both memos
// are content-addressed on the encoded point, so no configuration is
// ever simulated twice at the same fidelity. The returned MultiFidelity
// plugs into hypermapper.OptimizerConfig.BatchEval; full is the
// memoized full-fidelity evaluator for point queries (default marker,
// random baselines) that should share the cache. Both rungs simulate on
// the Simulator's reused pipelines.
func (s *Simulator) NewMultiFidelityEvaluator(space *hypermapper.Space, seq dataset.Sequence, model *device.Model, opts FidelityOptions) (ladder *hypermapper.MultiFidelity, full hypermapper.Evaluator) {
	highBase := s.NewEvaluator(space, seq, model)
	lowBase := s.NewEvaluator(space, slambench.Subsample(seq, opts.Stride), model)
	if opts.WrapEval != nil {
		highBase = opts.WrapEval("full", highBase)
		lowBase = opts.WrapEval("low", lowBase)
	}
	newMemo := opts.Memo
	if newMemo == nil {
		newMemo = func(_ string, eval hypermapper.Evaluator) *hypermapper.MemoEvaluator {
			return hypermapper.NewMemoEvaluator(eval)
		}
	}
	high := newMemo("full", highBase)
	low := newMemo("low", lowBase)
	var rank func(hypermapper.Metrics) float64
	if opts.AccuracyLimit > 0 {
		rank = FidelityRank(opts.AccuracyLimit)
	}
	return &hypermapper.MultiFidelity{
		Low:             low.Evaluate,
		High:            high.Evaluate,
		PromoteFraction: opts.PromoteFraction,
		Rank:            rank,
		Workers:         opts.Workers,
	}, high.Evaluate
}
