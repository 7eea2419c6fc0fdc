package hypermapper

import "sort"

// Metrics are the objectives SLAMBench measures per configuration. All
// are minimised except where a constraint says otherwise. The JSON form
// is the checkpoint wire format of campaign artifacts; Go's float64
// encoding round-trips bit-exactly, so serialised metrics reload
// byte-identical to the measured ones.
type Metrics struct {
	// Runtime is mean seconds per frame on the modelled device.
	Runtime float64 `json:"runtime"`
	// MaxATE is the accuracy objective (metres, the paper's "Max ATE").
	MaxATE float64 `json:"max_ate"`
	// Power is mean watts on the modelled device.
	Power float64 `json:"power"`
	// Energy is total joules for the sequence.
	Energy float64 `json:"energy"`
	// Failed marks configurations whose run lost tracking or errored;
	// they are excluded from fronts and best-config selection.
	Failed bool `json:"failed,omitempty"`
	// LowFidelity marks measurements taken on a reduced workload (the
	// unpromoted rung of the multi-fidelity ladder). They carry enough
	// signal to train surrogates but are not comparable to full runs,
	// so fronts and best-config selection exclude them like Failed.
	LowFidelity bool `json:"low_fidelity,omitempty"`
}

// Observation pairs a configuration with its measured metrics. Like
// Metrics it is JSON-serialisable for checkpoint artifacts.
type Observation struct {
	X Point   `json:"x"`
	M Metrics `json:"m"`
}

// Objectives maps metrics to the minimisation vector used for dominance.
type Objectives func(Metrics) []float64

// RuntimeAccuracy is the Figure 2 objective pair.
func RuntimeAccuracy(m Metrics) []float64 { return []float64{m.Runtime, m.MaxATE} }

// Dominates reports whether a Pareto-dominates b (all objectives ≤, at
// least one strictly <).
func Dominates(a, b []float64) bool {
	strict := false
	for i := range a {
		if a[i] > b[i] {
			return false
		}
		if a[i] < b[i] {
			strict = true
		}
	}
	return strict
}

// ParetoFront extracts the non-dominated subset of obs under the given
// objectives, sorted by the first objective. Failed and low-fidelity
// observations are skipped — the front is built only from full
// measurements.
func ParetoFront(obs []Observation, objectives Objectives) []Observation {
	var valid []Observation
	for _, o := range obs {
		if !o.M.Failed && !o.M.LowFidelity {
			valid = append(valid, o)
		}
	}
	var front []Observation
	for i, a := range valid {
		dominated := false
		oa := objectives(a.M)
		for j, b := range valid {
			if i == j {
				continue
			}
			if Dominates(objectives(b.M), oa) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, a)
		}
	}
	sort.Slice(front, func(i, j int) bool {
		return objectives(front[i].M)[0] < objectives(front[j].M)[0]
	})
	return front
}

// Constraint filters observations for best-configuration queries.
type Constraint func(Metrics) bool

// AccuracyLimit builds the paper's feasibility constraint: max ATE below
// the limit (0.05 m in Figure 2). The constraint is fidelity-aware: a
// low-fidelity measurement never passes, even when composed directly
// (outside Best's own filter) — a subsampled run's optimistic ATE must
// not certify a configuration as feasible.
func AccuracyLimit(limit float64) Constraint {
	return func(m Metrics) bool { return !m.Failed && !m.LowFidelity && m.MaxATE <= limit }
}

// And conjoins constraints.
func And(cs ...Constraint) Constraint {
	return func(m Metrics) bool {
		for _, c := range cs {
			if !c(m) {
				return false
			}
		}
		return true
	}
}

// Best returns the feasible observation minimising key, and whether any
// feasible observation exists. Failed and low-fidelity observations
// never qualify.
func Best(obs []Observation, feasible Constraint, key func(Metrics) float64) (Observation, bool) {
	found := false
	var best Observation
	for _, o := range obs {
		if o.M.Failed || o.M.LowFidelity || (feasible != nil && !feasible(o.M)) {
			continue
		}
		if !found || key(o.M) < key(best.M) {
			best = o
			found = true
		}
	}
	return best, found
}

// HypervolumeProxy computes a simple quality indicator of a 2-objective
// front: the area dominated below a reference point. Used in tests and
// logs to show active learning beats random sampling.
func HypervolumeProxy(front []Observation, objectives Objectives, ref []float64) float64 {
	var pts [][]float64
	for _, o := range front {
		pts = append(pts, objectives(o.M))
	}
	return hv2D(pts, ref)
}

// hv2D computes the dominated area of 2-objective minimisation points
// below reference ref.
func hv2D(points [][]float64, ref []float64) float64 {
	var s hv2DScorer
	s.Reset(points, ref)
	return s.Base()
}

// p2 is one 2-objective point of the hypervolume scorer.
type p2 struct{ x, y float64 }

// hv2DScorer scores the hypervolume gain of single candidate points
// against a fixed 2-objective front. Reset sorts the front once; every
// Gain call then merges one extra point into the sorted sweep in O(front)
// with zero allocations — the shape the optimizer's pick loop needs,
// where one frozen front is probed by a thousand candidates.
type hv2DScorer struct {
	pts  []p2 // in-reference front points, sorted by x; reused across Resets
	ref  [2]float64
	base float64
	box  float64 // normalisation area ref[0]*ref[1] (0 disables)
}

// Reset installs a new front and reference point.
func (h *hv2DScorer) Reset(front [][]float64, ref []float64) {
	h.pts = h.pts[:0]
	h.ref = [2]float64{ref[0], ref[1]}
	for _, v := range front {
		if v[0] >= ref[0] || v[1] >= ref[1] {
			continue
		}
		h.pts = append(h.pts, p2{v[0], v[1]})
	}
	sort.Sort(byX(h.pts))
	h.base = h.area(p2{}, false)
	h.box = ref[0] * ref[1]
}

// byX sorts scorer points by the first objective.
type byX []p2

func (s byX) Len() int           { return len(s) }
func (s byX) Less(a, b int) bool { return s[a].x < s[b].x }
func (s byX) Swap(a, b int)      { s[a], s[b] = s[b], s[a] }

// Base returns the front's own dominated area.
func (h *hv2DScorer) Base() float64 { return h.base }

// Gain returns the normalised hypervolume a candidate at (x, y) would
// add to the front (the EHVI-style acquisition term).
func (h *hv2DScorer) Gain(x, y float64) float64 {
	g := h.area(p2{x, y}, true) - h.base
	if h.box > 0 {
		g /= h.box
	}
	return g
}

// area sweeps the sorted front left to right, injecting the extra point
// at its x position, and accumulates the dominated area below ref.
func (h *hv2DScorer) area(extra p2, hasExtra bool) float64 {
	if hasExtra && (extra.x >= h.ref[0] || extra.y >= h.ref[1]) {
		hasExtra = false
	}
	if len(h.pts) == 0 && !hasExtra {
		return 0
	}
	var prevX, bestY, area float64
	first := true
	step := func(p p2) {
		if first {
			prevX, bestY, first = p.x, p.y, false
			return
		}
		area += (p.x - prevX) * (h.ref[1] - bestY)
		if p.y < bestY {
			bestY = p.y
		}
		prevX = p.x
	}
	for _, p := range h.pts {
		if hasExtra && extra.x < p.x {
			step(extra)
			hasExtra = false
		}
		step(p)
	}
	if hasExtra {
		step(extra)
	}
	area += (h.ref[0] - prevX) * (h.ref[1] - bestY)
	return area
}
