package main

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"

	"slamgo/internal/campaign"
	"slamgo/internal/core"
	"slamgo/internal/dataset"
	"slamgo/internal/device"
	"slamgo/internal/evalstore"
	"slamgo/internal/hypermapper"
	"slamgo/internal/kfusion"
	"slamgo/internal/math3"
	"slamgo/internal/seqcache"
	"slamgo/internal/slambench"
)

// The replica rebuilds every Explore cell of a campaign from the same
// public calls the campaign makes, with a span around each call:
//
//	seqcache.Cache.Sequence → evalstore.Store.Scope +
//	hypermapper.NewTieredMemoEvaluator → hypermapper.Optimize →
//	core.ConfigFromPoint → slambench.Runner.Run over a kfusion adapter
//
// Optimize runs serially inside each cell (Workers 1; its result is
// identical for any worker count), so every span below a cell nests
// on the cell's lane and self times add up exactly; cells share the
// benchmark's two lanes as the warm campaign's cells share its two
// workers (the served job runs one; its replica keeps two lanes so the
// traced run stays well inside the time limit of one run).
// The replica must reproduce the campaign's per-cell fronts exactly,
// which proves the spans time the same program the campaign ran.

// replica runs the Explore cells of opts against the stores opts names
// and returns the evaluation store's counters and each cell's front, in
// grid order.
func replica(parent *spanRef, opts campaign.Options) (evalstore.Stats, [][]hypermapper.Observation, error) {
	cells := campaign.Grid(opts.Scenarios, opts.Targets)
	cache := seqcache.New(seqcache.Options{Dir: opts.SeqCacheDir})
	store := evalstore.Open(evalstore.Options{Dir: opts.EvalCacheDir})
	space := core.DSESpace()
	fronts := make([][]hypermapper.Observation, len(cells))
	errs := make([]error, len(cells))
	var next atomic.Int64
	var wg sync.WaitGroup
	for lane := 0; lane < workers; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(cells) {
					return
				}
				fronts[i], errs[i] = replicaCell(parent.childOn("cell", 10+lane), space, cache, store, opts, cells[i])
			}
		}(lane)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return evalstore.Stats{}, nil, err
		}
	}
	return store.Stats(), fronts, nil
}

func replicaCell(c *spanRef, space *hypermapper.Space, cache *seqcache.Cache, store *evalstore.Store,
	opts campaign.Options, cell campaign.Cell) ([]hypermapper.Observation, error) {
	defer c.end()
	c.set("cell", cell.Index)
	c.set("scenario", cell.Scenario.Name)
	c.set("device", cell.Target.Name)
	scale := cell.Scenario.Scale

	sp := c.child("seqcache.sequence")
	seq, src, err := cache.Sequence(scale.CacheKey(), scale.Sequence)
	sp.set("source", string(src))
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("replica cell %d: %w", cell.Index, err)
	}

	sp = c.child("evalstore.scope")
	// The campaign keys a device by its full rendered profile; the
	// replica must use the same identity to share the campaign's store.
	scope := store.Scope(scale.CacheKey(), fmt.Sprintf("%+v", cell.Target), 1)
	model := device.NewModel(cell.Target)
	st := &stack{}
	sim := func(pt hypermapper.Point) hypermapper.Metrics { return simulate(st, space, seq, model, pt) }
	memo := hypermapper.NewTieredMemoEvaluator(sim, tracedTier{scope: scope, st: st})
	sp.end()

	cfg := hypermapper.DefaultOptimizerConfig()
	cfg.RandomSamples = opts.RandomSamples
	cfg.ActiveIterations = opts.ActiveIterations
	cfg.BatchPerIteration = opts.BatchPerIteration
	cfg.Seed = opts.Seed + int64(cell.Index+1)*9973
	cfg.Workers = 1
	cfg.ConstraintObjective = 1 // MaxATE
	cfg.ConstraintLimit = opts.AccuracyLimit

	st.top = c
	st.open("hypermapper.optimize")
	// Optimize logs once after its random phase and once after every
	// active round; those lines delimit the round spans.
	st.open("hypermapper.round")
	cfg.Log = func(string) {
		st.close()
		st.open("hypermapper.round")
	}
	eval := func(pt hypermapper.Point) hypermapper.Metrics {
		st.open("hypermapper.memo")
		defer st.close()
		return memo.Evaluate(pt)
	}
	res, err := hypermapper.Optimize(space, eval, cfg)
	// The segment after the last round only builds the final front.
	st.top.name = "hypermapper.finalize"
	st.close()
	st.close()
	if st.top != c {
		panic("replica: unbalanced spans")
	}
	if err != nil {
		return nil, fmt.Errorf("replica cell %d: %w", cell.Index, err)
	}
	hits, misses := memo.Stats()
	c.set("memo_hits", hits)
	c.set("memo_misses", misses)
	return res.Front, nil
}

// stack is the innermost open span of one replica cell. A cell runs
// serially on its lane, so a plain stack orders its spans.
type stack struct{ top *spanRef }

func (s *stack) open(name string) *spanRef {
	s.top = s.top.child(name)
	return s.top
}

func (s *stack) close() {
	s.top.end()
	s.top = s.top.up
}

// tracedTier wraps the cell's evaluation-store scope with a lookup span;
// a lookup that contains no core.sim span was a disk hit.
type tracedTier struct {
	scope *evalstore.Scope
	st    *stack
}

func (t tracedTier) Evaluate(pt hypermapper.Point, simulate hypermapper.Evaluator) hypermapper.Metrics {
	t.st.open("evalstore.lookup")
	defer t.st.close()
	return t.scope.Evaluate(pt, simulate)
}

// simulate is core.NewEvaluator + core.Evaluate rebuilt from their
// public parts, with the pipeline behind a traced slambench.System.
func simulate(st *stack, space *hypermapper.Space, seq dataset.Sequence, model *device.Model, pt hypermapper.Point) hypermapper.Metrics {
	s := st.open("core.sim")
	defer st.close()
	cs := s.child("core.config")
	cfg, err := core.ConfigFromPoint(space, pt)
	cs.end()
	if err != nil {
		s.set("failed", true)
		return hypermapper.Metrics{Failed: true}
	}
	s.set("vr", cfg.VolumeResolution)
	run := s.child("slambench.run")
	sum, err := (&slambench.Runner{Model: model}).Run(&tracedKFusion{cfg: cfg, seq: seq, span: run}, seq)
	run.end()
	if err != nil {
		s.set("failed", true)
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
	s.set("failed", m.Failed)
	return m
}

// tracedKFusion is slambench.NewKFusion's adapter with spans: the
// pipeline is built lazily on the first frame, as there, and each
// frame's per-kernel wall times (FrameResult.KernelTimes, measured by
// the pipeline itself) are laid out back to back inside the frame span
// in execution order.
type tracedKFusion struct {
	cfg  kfusion.Config
	seq  dataset.Sequence
	p    *kfusion.Pipeline
	span *spanRef
}

func (k *tracedKFusion) Name() string { return "kfusion" }

func (k *tracedKFusion) Process(f *dataset.Frame) (slambench.FrameOutput, error) {
	if k.p == nil {
		sp := k.span.child("kfusion.new")
		f0, err := k.seq.Frame(0)
		if err != nil {
			sp.end()
			return slambench.FrameOutput{}, err
		}
		init := math3.SE3Identity()
		if f0.HasGT {
			init = f0.GroundTruth
		}
		k.p, err = kfusion.New(k.cfg, k.seq.Intrinsics(), init)
		sp.end()
		if err != nil {
			return slambench.FrameOutput{}, err
		}
	}
	fr := k.span.child("kfusion.frame")
	r, err := k.p.ProcessFrame(f.Depth)
	if err != nil {
		fr.end()
		return slambench.FrameOutput{}, err
	}
	fr.set("tracked", r.Tracked)
	fr.end()
	if fr != nil {
		at := fr.start
		for kern, d := range r.KernelTimes {
			if d > 0 {
				fr.record("kfusion."+kfusion.Kernel(kern).String(), fr.lane, at, at+d, nil)
				at += d
			}
		}
	}
	return slambench.FrameOutput{Pose: r.Pose, Tracked: r.Tracked, Cost: r.TotalCost()}, nil
}

// checkFronts compares the replica's fronts with the campaign's,
// observation by observation.
func checkFronts(want []campaign.CellResult, got [][]hypermapper.Observation) error {
	if len(want) != len(got) {
		return fmt.Errorf("replica: %d cells, campaign has %d", len(got), len(want))
	}
	var bad []string
	for i, c := range want {
		if !reflect.DeepEqual(c.Front, got[i]) {
			bad = append(bad, fmt.Sprintf("cell %d (%s on %s): replica front %d points, campaign %d",
				i, c.Cell.Scenario.Name, c.Cell.Target.Name, len(got[i]), len(c.Front)))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("replica does not reproduce the campaign: %s", strings.Join(bad, "; "))
	}
	return nil
}
