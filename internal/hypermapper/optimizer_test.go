package hypermapper

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"slamgo/internal/rf"
)

// syntheticEvaluator mimics the SLAM trade-off surface cheaply:
// runtime grows with volume resolution³ and icp iterations, shrinks with
// compute ratio; accuracy (maxATE) improves with resolution and
// iterations, degrades with compute ratio and extreme mu.
func syntheticEvaluator(s *Space) Evaluator {
	iVR := s.Index("volume_resolution")
	iCSR := s.Index("compute_size_ratio")
	iMu := s.Index("mu")
	iIt := s.Index("icp_iters")
	return func(pt Point) Metrics {
		vr := pt[iVR]
		csr := pt[iCSR]
		mu := pt[iMu]
		it := pt[iIt]
		runtime := 1e-9*vr*vr*vr + 0.004*it/csr + 0.02/csr
		ate := 0.012 + 4.0/vr + 0.012*csr + 0.3*math.Abs(mu-0.1) + 0.08/it
		power := 0.5 + 40*runtime
		return Metrics{
			Runtime: runtime,
			MaxATE:  ate,
			Power:   power,
			Energy:  power * runtime,
		}
	}
}

func TestOptimizeFindsFront(t *testing.T) {
	s := testSpace()
	eval := syntheticEvaluator(s)
	cfg := DefaultOptimizerConfig()
	cfg.RandomSamples = 15
	cfg.ActiveIterations = 4
	cfg.BatchPerIteration = 4
	cfg.CandidatePool = 500
	var logs []string
	cfg.Log = func(s string) { logs = append(logs, s) }

	res, err := Optimize(s, eval, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.RandomPhase < 10 {
		t.Fatalf("random phase %d", res.RandomPhase)
	}
	if len(res.Observations) <= res.RandomPhase {
		t.Fatal("no active-learning evaluations")
	}
	if len(res.Front) == 0 {
		t.Fatal("empty front")
	}
	if len(logs) == 0 {
		t.Fatal("no progress logs")
	}
	// Every front member must be non-dominated.
	for i, a := range res.Front {
		for j, b := range res.Front {
			if i != j && Dominates(RuntimeAccuracy(b.M), RuntimeAccuracy(a.M)) {
				t.Fatal("front member dominated")
			}
		}
	}
}

func bestFeasibleRuntime(obs []Observation, limit float64) float64 {
	best := math.Inf(1)
	for _, o := range obs {
		if !o.M.Failed && o.M.MaxATE <= limit && o.M.Runtime < best {
			best = o.M.Runtime
		}
	}
	return best
}

func TestActiveLearningBeatsRandomSampling(t *testing.T) {
	// The core claim of Figure 2: under the accuracy limit, active
	// learning finds faster feasible configurations than random sampling
	// with the same evaluation budget.
	s := testSpace()
	eval := syntheticEvaluator(s)
	const limit = 0.1

	winsActive, winsRandom := 0, 0
	for seed := int64(1); seed <= 3; seed++ {
		cfg := DefaultOptimizerConfig()
		cfg.RandomSamples = 15
		cfg.ActiveIterations = 6
		cfg.BatchPerIteration = 5
		cfg.CandidatePool = 800
		cfg.Seed = seed
		cfg.ConstraintObjective = 1
		cfg.ConstraintLimit = limit
		res, err := Optimize(s, eval, cfg)
		if err != nil {
			t.Fatal(err)
		}
		budget := len(res.Observations)
		bActive := bestFeasibleRuntime(res.Observations, limit)

		// Average random-only baseline over several draws for stability.
		var bRandom float64
		const trials = 5
		for tr := int64(0); tr < trials; tr++ {
			rng := rand.New(rand.NewSource(100*seed + tr))
			var obs []Observation
			for _, pt := range s.SampleN(budget, rng) {
				obs = append(obs, Observation{X: pt, M: eval(pt)})
			}
			bRandom += bestFeasibleRuntime(obs, limit)
		}
		bRandom /= trials
		if bActive <= bRandom {
			winsActive++
		} else {
			winsRandom++
		}
	}
	if winsActive <= winsRandom {
		t.Fatalf("active learning won %d/%d constrained searches against random sampling",
			winsActive, winsActive+winsRandom)
	}
}

func TestOptimizeValidation(t *testing.T) {
	s := testSpace()
	if _, err := Optimize(s, nil, DefaultOptimizerConfig()); err == nil {
		t.Fatal("nil evaluator accepted")
	}
	cfg := DefaultOptimizerConfig()
	cfg.RandomSamples = 1
	if _, err := Optimize(s, syntheticEvaluator(s), cfg); err == nil {
		t.Fatal("1 random sample accepted")
	}
	bad := &Space{}
	if _, err := Optimize(bad, syntheticEvaluator(s), DefaultOptimizerConfig()); err == nil {
		t.Fatal("invalid space accepted")
	}
}

func TestOptimizeAllFailedRuns(t *testing.T) {
	s := testSpace()
	eval := func(Point) Metrics { return Metrics{Failed: true} }
	cfg := DefaultOptimizerConfig()
	cfg.RandomSamples = 8
	cfg.ActiveIterations = 2
	res, err := Optimize(s, eval, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Front) != 0 {
		t.Fatal("failed runs formed a front")
	}
}

func TestParetoFrontBasics(t *testing.T) {
	obs := []Observation{
		{M: Metrics{Runtime: 1, MaxATE: 1}},
		{M: Metrics{Runtime: 2, MaxATE: 2}},                   // dominated
		{M: Metrics{Runtime: 0.5, MaxATE: 3}},                 // trade-off
		{M: Metrics{Runtime: 3, MaxATE: 0.5}},                 // trade-off
		{M: Metrics{Runtime: 0.1, MaxATE: 0.1, Failed: true}}, // excluded
	}
	front := ParetoFront(obs, RuntimeAccuracy)
	if len(front) != 3 {
		t.Fatalf("front size %d", len(front))
	}
	// Sorted by runtime.
	for i := 1; i < len(front); i++ {
		if front[i].M.Runtime < front[i-1].M.Runtime {
			t.Fatal("front not sorted")
		}
	}
}

func TestDominates(t *testing.T) {
	if !Dominates([]float64{1, 1}, []float64{2, 2}) {
		t.Fatal("clear dominance missed")
	}
	if Dominates([]float64{1, 3}, []float64{2, 2}) {
		t.Fatal("trade-off dominated")
	}
	if Dominates([]float64{1, 1}, []float64{1, 1}) {
		t.Fatal("equal dominated")
	}
	if !Dominates([]float64{1, 1}, []float64{1, 2}) {
		t.Fatal("weak dominance missed")
	}
}

func TestBestAndConstraints(t *testing.T) {
	obs := []Observation{
		{M: Metrics{Runtime: 0.01, MaxATE: 0.2}}, // fast, inaccurate
		{M: Metrics{Runtime: 0.04, MaxATE: 0.04}},
		{M: Metrics{Runtime: 0.09, MaxATE: 0.01}},
		{M: Metrics{Runtime: 0.001, MaxATE: 0.001, Failed: true}},
	}
	best, ok := Best(obs, AccuracyLimit(0.05), func(m Metrics) float64 { return m.Runtime })
	if !ok {
		t.Fatal("no feasible found")
	}
	if best.M.Runtime != 0.04 {
		t.Fatalf("best runtime %v", best.M.Runtime)
	}
	// Conjunction.
	c := And(AccuracyLimit(0.05), func(m Metrics) bool { return m.Runtime < 0.05 })
	best, ok = Best(obs, c, func(m Metrics) float64 { return m.MaxATE })
	if !ok || best.M.Runtime != 0.04 {
		t.Fatalf("conjunction best %+v ok=%v", best.M, ok)
	}
	// Infeasible.
	if _, ok := Best(obs, AccuracyLimit(1e-6), func(m Metrics) float64 { return m.Runtime }); ok {
		t.Fatal("infeasible constraint satisfied")
	}
}

func TestHypervolumeProxy(t *testing.T) {
	obs := []Observation{
		{M: Metrics{Runtime: 0.5, MaxATE: 0.5}},
	}
	hv := HypervolumeProxy(obs, RuntimeAccuracy, []float64{1, 1})
	if math.Abs(hv-0.25) > 1e-12 {
		t.Fatalf("hv %v want 0.25", hv)
	}
	if HypervolumeProxy(nil, RuntimeAccuracy, []float64{1, 1}) != 0 {
		t.Fatal("empty front hv ≠ 0")
	}
	// Points beyond the reference contribute nothing.
	far := []Observation{{M: Metrics{Runtime: 2, MaxATE: 2}}}
	if HypervolumeProxy(far, RuntimeAccuracy, []float64{1, 1}) != 0 {
		t.Fatal("out-of-reference point counted")
	}
}

func TestKnowledgeExtraction(t *testing.T) {
	s := testSpace()
	eval := syntheticEvaluator(s)
	rng := rand.New(rand.NewSource(21))
	var obs []Observation
	for _, pt := range s.SampleN(300, rng) {
		obs = append(obs, Observation{X: pt, M: eval(pt)})
	}
	label, names := PaperClasses(0.08, 20, 2.0)
	tree, rules, err := Knowledge(s, obs, label, names, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) == 0 {
		t.Fatal("no rules extracted")
	}
	// Rules must reference real parameter names.
	joined := ""
	for _, r := range rules {
		joined += r.String() + "\n"
	}
	referenced := false
	for _, n := range s.Names() {
		if strings.Contains(joined, n) {
			referenced = true
		}
	}
	if !referenced {
		t.Fatalf("no parameter named in rules:\n%s", joined)
	}
	// The tree should be decent on its own training data.
	var X [][]float64
	var y []int
	for _, o := range obs {
		X = append(X, o.X)
		y = append(y, label(o.M))
	}
	if acc := tree.Accuracy(X, y); acc < 0.6 {
		t.Fatalf("knowledge tree accuracy %v", acc)
	}
	if _, _, err := Knowledge(s, nil, label, names, 3); err == nil {
		t.Fatal("empty observations accepted")
	}
}

func TestPaperClassesLabeling(t *testing.T) {
	label, names := PaperClasses(0.05, 30, 3)
	if len(names) != 8 {
		t.Fatalf("classes %d", len(names))
	}
	all := label(Metrics{MaxATE: 0.01, Runtime: 1.0 / 60, Power: 1})
	if names[all] != "accurate+fast+efficient" {
		t.Fatalf("all-goals class %q", names[all])
	}
	none := label(Metrics{MaxATE: 0.5, Runtime: 1, Power: 9})
	if names[none] != "none" {
		t.Fatalf("no-goals class %q", names[none])
	}
	if label(Metrics{Failed: true}) != 0 {
		t.Fatal("failed run not class 0")
	}
	fast := label(Metrics{MaxATE: 0.5, Runtime: 0.01, Power: 9})
	if names[fast] != "fast" {
		t.Fatalf("fast class %q", names[fast])
	}
}

var _ = rf.DefaultForestConfig // keep import for documentation parity

func TestOptimizerFindsNearExhaustiveOptimum(t *testing.T) {
	// Validation against brute force: on a fully discrete space, the
	// constrained optimizer's best feasible point must be within 25% of
	// the true optimum runtime.
	vrs := []float64{64, 96, 128, 192, 256}
	csrs := []float64{1, 2, 4, 8}
	s := &Space{Params: []Parameter{
		{Name: "volume_resolution", Kind: Ordinal, Choices: vrs},
		{Name: "compute_size_ratio", Kind: Ordinal, Choices: csrs},
		{Name: "icp_iters", Kind: Integer, Min: 1, Max: 10},
	}}
	eval := func(pt Point) Metrics {
		vr, csr, it := pt[0], pt[1], pt[2]
		return Metrics{
			Runtime: 1e-9*vr*vr*vr + 0.004*it/csr + 0.02/csr,
			MaxATE:  0.012 + 4.0/vr + 0.012*csr + 0.08/it,
			Power:   1,
		}
	}
	const limit = 0.09

	trueBest := math.Inf(1)
	for _, vr := range vrs {
		for _, csr := range csrs {
			for it := 1.0; it <= 10; it++ {
				m := eval(Point{vr, csr, it})
				if m.MaxATE <= limit && m.Runtime < trueBest {
					trueBest = m.Runtime
				}
			}
		}
	}

	cfg := DefaultOptimizerConfig()
	cfg.RandomSamples = 12
	cfg.ActiveIterations = 6
	cfg.BatchPerIteration = 4
	cfg.CandidatePool = 500
	cfg.ConstraintObjective = 1
	cfg.ConstraintLimit = limit
	cfg.Seed = 5
	res, err := Optimize(s, eval, cfg)
	if err != nil {
		t.Fatal(err)
	}
	found := math.Inf(1)
	for _, o := range res.Observations {
		if o.M.MaxATE <= limit && o.M.Runtime < found {
			found = o.M.Runtime
		}
	}
	if found > trueBest*1.25 {
		t.Fatalf("optimizer best %v vs exhaustive optimum %v", found, trueBest)
	}
}
