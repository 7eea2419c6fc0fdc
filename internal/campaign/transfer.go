package campaign

import (
	"fmt"

	"slamgo/internal/hypermapper"
)

// This file is the campaign's cross-cell transfer-learning schedule.
// With Options.Transfer the Explore stage runs as two waves instead of
// one flat fan-out:
//
//	wave 1  anchor cells — the grid diagonal — explore from scratch,
//	        exactly as a transfer-off campaign would;
//	wave 2  every remaining cell (a borrower) warm-starts from a fixed
//	        donor set drawn from the anchors: its same-scenario anchor
//	        plus its same-device anchors. Donor winners concentrate the
//	        borrower's (reduced) seeding budget via a warm-start seeder,
//	        and the pooled donor observations fit a surrogate prior that
//	        biases acquisition while local evidence is thin.
//
// Donor knowledge informs *where the borrower samples*; donor
// observations never enter the borrower's observation log, front or
// best pick — metrics are workload- and device-specific. The wave split
// is a plain artifact dependency: anchors are ordinary cells with
// ordinary artifact names (a transfer-off campaign resumes them and
// vice versa), and in cooperative worker mode every process drives wave
// 1 for every anchor through the usual lease/poll protocol, so each
// process holds all donor artifacts before any borrower starts. The
// donor topology, budgets and donor content are all pure functions of
// the options and seed, so a transfer campaign keeps the determinism
// contract: bit-identical reports for any worker count and across
// cooperating processes.

// warmFraction is the share of a borrower's reduced seeding budget
// committed to donor knowledge (exact donor winners first, then clamped
// neighbourhood draws around them — see hypermapper.WarmStartSeeder).
// It is deliberately higher than the seeder's generic 0.5 default: a
// borrower's budget is already cut well below the from-scratch
// RandomSamples, so spending the remainder on a coarse Latin hypercube
// buys almost no coverage, while refining around donor winners reliably
// recovers the donor's Pareto region on the new cell. Global coverage
// is not lost — the active phase scores a half-random candidate pool
// every round, which is where from-scratch discovery happens anyway.
const warmFraction = 0.9

// transferExtraRound reports whether a warm-started borrower gets one
// extra active-learning round on top of the campaign's. A borrower's
// savings come from slashing the seeding budget (TransferSeeds vs
// RandomSamples); model-guided picks recover front quality per
// simulation far better than the random draws they replace, so the
// freed budget is reinvested in acquisition — but only when the total
// still clears the 20% savings bar against a from-scratch cell:
//
//	TransferSeeds + (A+1)·B ≤ 0.8 · (RandomSamples + A·B)
//
// evaluated in integers (×5) so the grant is an exact pure function of
// the options — it shifts the borrower's evaluation schedule, and the
// options already key the borrower's artifact hash, so determinism and
// resume compatibility hold without new hash inputs.
func (o Options) transferExtraRound() bool {
	a, b := o.ActiveIterations, o.BatchPerIteration
	return 5*(o.TransferSeeds+(a+1)*b) <= 4*(o.RandomSamples+a*b)
}

// anchorIndices returns the grid-diagonal anchor cells: scenario si
// anchors at target si mod nTargets, so every scenario and (for grids
// with at least as many scenarios as targets) every target has an
// anchor explored from scratch. One entry per scenario, ascending grid
// index — a pure function of the grid shape.
func anchorIndices(nScenarios, nTargets int) []int {
	out := make([]int, 0, nScenarios)
	for si := 0; si < nScenarios; si++ {
		out = append(out, si*nTargets+si%nTargets)
	}
	return out
}

// donorIndices returns the fixed donor set of borrower cell idx: its
// same-scenario anchor first (same workload, different device — the
// strongest signal for configuration transfer), then every same-device
// anchor in ascending grid index. Pure function of (idx, grid shape);
// never contains idx itself because borrowers are off-diagonal by
// definition.
func donorIndices(idx, nTargets int, anchors []int) []int {
	si, ti := idx/nTargets, idx%nTargets
	out := []int{anchors[si]}
	for sj, a := range anchors {
		if sj != si && a%nTargets == ti {
			out = append(out, a)
		}
	}
	return out
}

// planTransfer fills r.anchors and r.donors from the grid shape:
// donors[i] is the fixed donor index list of a borrower, nil for an
// anchor and for every cell of a transfer-off campaign.
func (r *runner) planTransfer() {
	r.donors = make([][]int, len(r.cells))
	if !r.opts.Transfer {
		return
	}
	nTargets := len(r.opts.Targets)
	r.anchors = anchorIndices(len(r.opts.Scenarios), nTargets)
	isAnchor := make(map[int]bool, len(r.anchors))
	for _, a := range r.anchors {
		isAnchor[a] = true
	}
	for i := range r.cells {
		if !isAnchor[i] {
			r.donors[i] = donorIndices(i, nTargets, r.anchors)
		}
	}
}

// donorData assembles a borrower's transfer inputs from its donor
// anchors: per-donor observation sets for the prior (one slice per
// donor, so normalisation stays per-cell), the borrowed seed points
// (each donor's best feasible configuration first, then its leading
// front members, deduplicated in donor order), and the labels of the
// donors that actually contributed. Donor logs are the observations of
// the anchors' wave-1 artifacts, which every process holds in memory
// (computed, or loaded from the store on resume) before any borrower
// starts. Quarantined donors and donors with no usable full-fidelity
// observations contribute nothing; with every donor empty the borrower
// degrades to exploring from scratch.
func (r *runner) donorData(donors []int) (sets [][]hypermapper.Observation, points []hypermapper.Point, labels []string) {
	var perDonor [][]hypermapper.Point
	for _, idx := range donors {
		art := r.arts[idx]
		if art == nil || art.Failed {
			continue
		}
		usable := hypermapper.FullObservations(art.Observations)
		if len(usable) == 0 {
			continue
		}
		sets = append(sets, usable)
		labels = append(labels, fmt.Sprintf("%s/%s", art.Scenario, art.Device))
		// Every front member is offered (unlike cross-measurement, which
		// caps candidates at MaxFrontCandidates because each one costs a
		// simulation per cell): seed points only steer sampling, so more
		// donor winners just means better coverage of the donor's
		// Pareto-optimal region.
		var pts []hypermapper.Point
		if art.HasBestFeasible {
			pts = append(pts, art.BestFeasible.X)
		}
		for _, o := range art.Front {
			pts = append(pts, o.X)
		}
		perDonor = append(perDonor, pts)
	}
	// Interleave round-robin across donors — every donor's leading
	// winner before any donor's runner-up — so a tight seeding budget
	// hears every transfer signal (the same-scenario donor AND the
	// same-device ones) instead of replaying the first donor's whole
	// front. Deduplication keeps the first (highest-priority) slot of a
	// configuration donated twice.
	seen := map[string]bool{}
	for rank := 0; ; rank++ {
		added := false
		for _, pts := range perDonor {
			if rank >= len(pts) {
				continue
			}
			added = true
			pt := pts[rank]
			key := string(hypermapper.AppendKey(make([]byte, 0, 8*len(pt)), pt))
			if !seen[key] {
				seen[key] = true
				points = append(points, pt.Clone())
			}
		}
		if !added {
			break
		}
	}
	return sets, points, labels
}
