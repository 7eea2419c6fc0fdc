package core

import (
	"testing"

	"slamgo/internal/dataset"
	"slamgo/internal/hypermapper"
)

// render renders the scale's sequence.
func render(t *testing.T, s Scale) dataset.Sequence {
	t.Helper()
	seq, err := s.Sequence()
	if err != nil {
		t.Fatal(err)
	}
	return seq
}

// defaultTrace is the default configuration's trace on seq, as E1's run
// hands it to RunHeadline.
func defaultTrace(t *testing.T, seq dataset.Sequence) Trace {
	t.Helper()
	fig1, err := RunFig1(seq)
	if err != nil {
		t.Fatal(err)
	}
	return fig1.Trace
}

// fig2Quick runs a small but real DSE on seq (shared across the
// experiment tests to amortise its cost).
func fig2Quick(t *testing.T, seq dataset.Sequence) *Fig2Result {
	t.Helper()
	opts := DefaultFig2Options()
	opts.RandomSamples = 8
	opts.ActiveIterations = 2
	opts.BatchPerIteration = 2
	opts.AccuracyLimit = 0.08 // quick-scale sequences are short; be lenient
	res, err := RunFig2(seq, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestFig2AndHeadlineAndFig3(t *testing.T) {
	seq := render(t, QuickScale())
	fig2 := fig2Quick(t, seq)

	// --- Fig 2 structural checks.
	if len(fig2.Active.Observations) < 8 {
		t.Fatalf("too few observations: %d", len(fig2.Active.Observations))
	}
	if len(fig2.RandomOnly) != len(fig2.Active.Observations) {
		t.Fatalf("random baseline budget mismatch: %d vs %d",
			len(fig2.RandomOnly), len(fig2.Active.Observations))
	}
	// Without the ladder every observation is a full run, and the
	// baseline budget matches it.
	if fig2.ActiveFullEvals != len(fig2.Active.Observations) ||
		fig2.BaselineBudget != len(fig2.RandomOnly) || fig2.ActiveLowEvals != 0 {
		t.Fatalf("full-fidelity accounting off without ladder: full=%d low=%d budget=%d",
			fig2.ActiveFullEvals, fig2.ActiveLowEvals, fig2.BaselineBudget)
	}
	if fig2.DefaultMetrics.Failed {
		t.Fatal("default configuration failed")
	}
	if len(fig2.Active.Front) == 0 {
		t.Fatal("empty Pareto front")
	}
	if len(fig2.Knowledge) == 0 {
		t.Fatal("no knowledge rules extracted")
	}
	if !fig2.HasBestFeasible {
		t.Fatal("no feasible configuration found")
	}
	if len(fig2.RuntimeImportance) != len(fig2.Space.Params) {
		t.Fatalf("runtime importance incomplete: %v", fig2.RuntimeImportance)
	}
	var impSum float64
	for _, v := range fig2.RuntimeImportance {
		impSum += v
	}
	if impSum < 0.99 || impSum > 1.01 {
		t.Fatalf("importance not normalised: %v", impSum)
	}
	if fig2.BestFeasible.M.MaxATE > fig2.AccuracyLimit {
		t.Fatalf("best feasible violates limit: %v", fig2.BestFeasible.M.MaxATE)
	}

	// --- Headline: tuned must be faster than default, and accurate.
	head, err := RunHeadline(fig2, defaultTrace(t, seq), seq)
	if err != nil {
		t.Fatal(err)
	}
	if head.Speedup <= 1 {
		t.Fatalf("tuned configuration not faster than default: speedup %v", head.Speedup)
	}
	if head.PowerReduction <= 1 {
		t.Fatalf("tuned configuration not lower power: reduction %v", head.PowerReduction)
	}
	if head.TunedPerf.MaxATE > fig2.AccuracyLimit {
		t.Fatalf("tuned config inaccurate: %v", head.TunedPerf.MaxATE)
	}

	// --- Fig 3: phone sweep over the tuned configuration.
	fig3, err := RunFig3(head.DefaultTrace, head.TunedTrace, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig3.Phones) != 83 {
		t.Fatalf("phone count %d", len(fig3.Phones))
	}
	if fig3.Min < 0.5 {
		t.Fatalf("implausible minimum speedup %v", fig3.Min)
	}
	if fig3.Max <= fig3.Min {
		t.Fatal("no speedup spread across devices")
	}
	if fig3.Mean <= 1 {
		t.Fatalf("mean speedup %v — tuning should help on average", fig3.Mean)
	}
	// The distribution must actually vary (the whole point of Figure 3).
	if fig3.Max/fig3.Min < 1.5 {
		t.Fatalf("speedup spread too narrow: [%v, %v]", fig3.Min, fig3.Max)
	}
}

// TestFig2LadderBaselineBudget pins the same-budget fairness of the
// random baseline under the multi-fidelity ladder: the baseline must
// consume exactly as many full-fidelity simulations as the active run
// spent, not one per observation (observations include cheap screening
// runs, so the old accounting inflated the baseline's budget).
func TestFig2LadderBaselineBudget(t *testing.T) {
	opts := DefaultFig2Options()
	opts.RandomSamples = 8
	opts.ActiveIterations = 2
	opts.BatchPerIteration = 2
	opts.AccuracyLimit = 0.08
	opts.FidelityStride = 2
	opts.PromoteFraction = 0.25
	res, err := RunFig2(render(t, QuickScale()), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.ActiveLowEvals == 0 {
		t.Fatal("ladder ran no low-fidelity screening runs")
	}
	// The ladder promotes a fraction of each batch: the full-fidelity
	// spend must be strictly below the observation count, or screening
	// saved nothing.
	if res.ActiveFullEvals >= len(res.Active.Observations) {
		t.Fatalf("full-fidelity evals %d not below observation count %d",
			res.ActiveFullEvals, len(res.Active.Observations))
	}
	if res.BaselineBudget != res.ActiveFullEvals {
		t.Fatalf("baseline budget %d != active full-fidelity evals %d",
			res.BaselineBudget, res.ActiveFullEvals)
	}
	if len(res.RandomOnly) != res.BaselineBudget {
		t.Fatalf("baseline ran %d evaluations, budget is %d",
			len(res.RandomOnly), res.BaselineBudget)
	}
	for i, o := range res.RandomOnly {
		if o.M.LowFidelity {
			t.Fatalf("baseline observation %d is low fidelity", i)
		}
	}
}

func TestRunHeadlineRequiresFeasible(t *testing.T) {
	fig2 := &Fig2Result{AccuracyLimit: 0.05}
	if _, err := RunHeadline(fig2, Trace{}, nil); err == nil {
		t.Fatal("headline without feasible config accepted")
	}
}

func TestRunFig3RejectsEmptySequence(t *testing.T) {
	bad := QuickScale()
	bad.KT = 9
	if _, err := bad.Sequence(); err == nil {
		t.Fatal("invalid scale accepted")
	}
	if _, err := RunFig3(Trace{}, Trace{}, 1); err == nil {
		t.Fatal("traces of no frames accepted")
	}
}

func TestFig2OptionsDefaults(t *testing.T) {
	opts := DefaultFig2Options()
	if opts.AccuracyLimit != 0.05 {
		t.Fatalf("accuracy limit %v", opts.AccuracyLimit)
	}
	if opts.RandomSamples == 0 {
		t.Fatal("incomplete defaults")
	}
}

var _ = hypermapper.RuntimeAccuracy
