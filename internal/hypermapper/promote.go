package hypermapper

import (
	"math"
	"sort"
)

// This file is the promotion machinery of the multi-fidelity ladder
// (MultiFidelity promotes the most promising candidates of a batch to a
// full-fidelity run) and the shared-reference front scoring that
// compares campaign reports.

// PromoteTopFraction selects the indices of the most promising entries
// of a scored batch: the ceil(fraction·len(scores)) entries with the
// lowest score (lower is better), ties broken by index so the selection
// is identical however the scoring pass was parallelised. At least one
// entry is always selected from a non-empty batch, and fraction values
// outside (0, 1] are treated as 1 of n / all of n respectively only
// through the ceil-and-clamp — callers apply their own defaults first.
// The returned indices are ordered best first.
func PromoteTopFraction(scores []float64, fraction float64) []int {
	n := len(scores)
	if n == 0 {
		return nil
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ra, rb := scores[order[a]], scores[order[b]]
		if ra != rb {
			return ra < rb
		}
		return order[a] < order[b]
	})
	promote := int(math.Ceil(fraction * float64(n)))
	if promote < 1 {
		promote = 1
	}
	if promote > n {
		promote = n
	}
	return order[:promote]
}

// FrontHypervolumes scores a set of 2-objective Pareto fronts against
// one shared reference point: the componentwise maximum over every
// member of every front, inflated by 5% so boundary points still
// dominate area. The result is each front's dominated hypervolume
// (higher = more competitive); an empty front scores 0. cmd/campaigncmp
// compares the front quality of two campaign reports with it. The
// reference depends only on the front contents, so the scores are
// deterministic for any worker count.
func FrontHypervolumes(fronts [][]Observation, objectives Objectives) []float64 {
	out := make([]float64, len(fronts))
	var ref []float64
	for _, front := range fronts {
		for _, o := range front {
			v := objectives(o.M)
			if ref == nil {
				ref = append([]float64{}, v...)
				continue
			}
			for i := range v {
				if v[i] > ref[i] {
					ref[i] = v[i]
				}
			}
		}
	}
	if ref == nil {
		return out
	}
	for i := range ref {
		ref[i] = ref[i]*1.05 + 1e-12
	}
	for i, front := range fronts {
		out[i] = HypervolumeProxy(front, objectives, ref)
	}
	return out
}
