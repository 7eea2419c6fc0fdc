package slambench

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
)

// CampaignCell is one scenario × device row of a campaign report: the
// summary of a full DSE run on that workload/target combination plus
// the robust configuration's standing when replayed in the cell.
type CampaignCell struct {
	// Scenario names the workload cell (scene, trajectory, resolution,
	// noise — e.g. "lr_kt2").
	Scenario string `json:"scenario"`
	// Device names the execution target the cell was tuned for.
	Device string `json:"device"`
	// Evaluations is the number of configurations the cell's exploration
	// observed (screening runs included).
	Evaluations int `json:"evaluations"`
	// FullFidelityEvals is the number of full-sequence simulations the
	// exploration spent (the campaign's robust aggregation phase
	// cross-measures candidates on top of this).
	FullFidelityEvals int `json:"full_fidelity_evals"`
	// LowFidelityEvals is the number of reduced-workload simulations the
	// exploration spent: the multi-fidelity ladder's screening runs.
	LowFidelityEvals int `json:"low_fidelity_evals,omitempty"`
	// FrontSize is the cell's Pareto-front cardinality.
	FrontSize int `json:"front_size"`
	// Fidelity is the fidelity the cell's reported exploration ran at
	// ("full"). Deterministic, so it is part of every report format.
	Fidelity string `json:"fidelity,omitempty"`
	// Resumed reports that the cell was loaded from a checkpoint store
	// instead of being explored in this run. Execution provenance — it
	// differs between a fresh and a resumed run of the same campaign —
	// so it is excluded from the deterministic report writers and
	// rendered only by WriteCampaignProvenance.
	Resumed bool `json:"-"`
	// Owner names who produced the cell's artifact this run: a worker id
	// (or "local") when computed in-process, "store" when loaded from a
	// checkpoint. Execution provenance like Resumed — different workers
	// of the same campaign report different owners — so it is rendered
	// only by WriteCampaignProvenance.
	Owner string `json:"-"`
	// SeqSource reports where the cell's rendered sequence came from:
	// "render" (rendered here and published to the sequence cache),
	// "cache" (verified disk hit), "memory" (in-process reuse), "inline"
	// (cache degraded; rendered uncached) or "" (the cell was resumed
	// and never needed its sequence). Execution provenance like Resumed
	// — it depends on which process rendered first — so it is rendered
	// only by WriteCampaignProvenance.
	SeqSource string `json:"-"`
	// TransferBorrower marks a cell the campaign's transfer schedule
	// warm-started from donor cells; TransferDonors names those donors
	// ("scenario/device") and TransferSeeds counts the distinct donor
	// configurations its seeding borrowed. Deterministic (the donor
	// topology is a pure function of the campaign options), rendered by
	// the table and CSV writers only when the report's Transfer flag is
	// set — and omitted from the JSON otherwise — so transfer-off
	// reports keep their byte surface.
	TransferBorrower bool     `json:"transfer_borrower,omitempty"`
	TransferDonors   []string `json:"transfer_donors,omitempty"`
	TransferSeeds    int      `json:"transfer_seeds,omitempty"`
	// Knowledge holds the cell's extracted decision rules (rendered
	// rf.Rule strings) when the campaign ran with knowledge extraction
	// enabled; JSON only.
	Knowledge []string `json:"knowledge,omitempty"`
	// Failed reports that the cell's exploration panicked and was
	// quarantined: it has no front or best configuration and the robust
	// aggregation ranked the surviving cells only. Deterministic for a
	// given seed and options, so it is part of every report format
	// (omitempty keeps healthy campaigns' reports byte-identical to
	// pre-quarantine ones).
	Failed bool `json:"failed,omitempty"`
	// FailureReason is the quarantined panic value, when Failed.
	FailureReason string `json:"failure_reason,omitempty"`
	// Front lists the cell's Pareto-front measurements, runtime
	// ascending (rendered in the JSON report; the table shows the size).
	Front []CampaignFrontPoint `json:"front,omitempty"`
	// Feasible reports whether any configuration met the accuracy limit.
	Feasible bool `json:"feasible"`
	// BestRuntime/BestMaxATE/BestPower describe the cell's own best
	// feasible configuration (zero when Feasible is false).
	BestRuntime float64 `json:"best_runtime,omitempty"`
	BestMaxATE  float64 `json:"best_max_ate,omitempty"`
	BestPower   float64 `json:"best_power,omitempty"`
	// RobustRuntime/RobustMaxATE are the cross-scenario robust
	// configuration's full-fidelity measurements in this cell.
	RobustRuntime float64 `json:"robust_runtime"`
	RobustMaxATE  float64 `json:"robust_max_ate"`
	// RobustRank is the robust configuration's rank among the candidate
	// set within this cell (1 = fastest feasible candidate).
	RobustRank int `json:"robust_rank"`
	// RobustFeasible reports whether the robust configuration met the
	// accuracy limit in this cell.
	RobustFeasible bool `json:"robust_feasible"`
}

// CampaignFrontPoint is one Pareto-front measurement of a campaign cell.
type CampaignFrontPoint struct {
	Runtime float64 `json:"runtime"`
	MaxATE  float64 `json:"max_ate"`
	Power   float64 `json:"power"`
}

// CampaignReport aggregates a cross-scene / cross-device DSE campaign:
// one row per cell plus the rank-aggregated robust configuration.
type CampaignReport struct {
	// AccuracyLimit is the feasibility bound shared by every cell.
	AccuracyLimit float64 `json:"accuracy_limit"`
	// Cells are the per-cell results in registry order.
	Cells []CampaignCell `json:"cells"`
	// Candidates is the size of the cross-cell candidate set the robust
	// configuration was selected from.
	Candidates int `json:"candidates"`
	// RobustConfig renders the winning configuration's parameters.
	RobustConfig string `json:"robust_config"`
	// RobustWorstRank is the winner's worst per-cell rank (the
	// best-worst-case criterion it minimises).
	RobustWorstRank int `json:"robust_worst_rank"`
	// RobustFeasibleEverywhere reports whether the winner met the
	// accuracy limit in every cell.
	RobustFeasibleEverywhere bool `json:"robust_feasible_everywhere"`
	// Transfer reports that the campaign ran with cross-cell transfer
	// learning; the fields below summarise its efficiency (all zero and
	// omitted otherwise, keeping transfer-off reports byte-identical to
	// pre-transfer ones). Anchor cells explored from scratch, borrower
	// cells warm-started from them; the eval counters are full-fidelity
	// exploration spend summed over the healthy cells of each wave, and
	// SavingsPct compares the per-cell averages.
	Transfer                  bool    `json:"transfer,omitempty"`
	TransferAnchors           int     `json:"transfer_anchors,omitempty"`
	TransferBorrowers         int     `json:"transfer_borrowers,omitempty"`
	TransferSeedsBorrowed     int     `json:"transfer_seeds_borrowed,omitempty"`
	TransferAnchorFullEvals   int     `json:"transfer_anchor_full_evals,omitempty"`
	TransferBorrowerFullEvals int     `json:"transfer_borrower_full_evals,omitempty"`
	TransferSavingsPct        float64 `json:"transfer_savings_pct,omitempty"`
	// SeqRenders / SeqDiskHits / SeqMemoryHits / SeqDegradations /
	// SeqEvictions are this process's rendered-sequence cache counters.
	// Renders counts actual renderer invocations, so summing SeqRenders
	// over every cooperating process proves each distinct sequence was
	// rendered exactly once per shared store. Execution provenance —
	// the split between render, disk hit and memory hit depends on which
	// process got to each sequence first — so the counters are excluded
	// from the deterministic report writers and rendered only by
	// WriteCampaignProvenance.
	SeqRenders      int `json:"-"`
	SeqDiskHits     int `json:"-"`
	SeqMemoryHits   int `json:"-"`
	SeqDegradations int `json:"-"`
	SeqEvictions    int `json:"-"`
	// EvalSimulations / EvalDiskHits / EvalPublished / EvalDegradations
	// / EvalEvictions are this process's persistent evaluation-store
	// counters. Simulations counts actual pipeline simulations issued
	// through the store, so summing EvalSimulations over every
	// cooperating process proves each distinct (configuration, sequence,
	// device, fidelity) was simulated exactly once per shared store — and
	// a warm re-run reporting EvalSimulations == 0 performed none at all.
	// Execution provenance like the sequence-cache counters (a warm store
	// answers from disk what a cold one simulates), so they are excluded
	// from the deterministic report writers and rendered by
	// WriteCampaignProvenance — and, opt-in, by the Caches JSON summary.
	EvalSimulations  int `json:"-"`
	EvalDiskHits     int `json:"-"`
	EvalPublished    int `json:"-"`
	EvalDegradations int `json:"-"`
	EvalEvictions    int `json:"-"`
	// MemoHits / MemoMisses aggregate the in-memory memoization layer
	// over every evaluator the campaign built. Execution provenance like
	// the store counters (concurrent first sightings of a key coalesce).
	MemoHits   int `json:"-"`
	MemoMisses int `json:"-"`
	// Caches, when non-nil, renders the full cache-counter summary into
	// the JSON report (campaign.Options.CacheStats opts in). Nil by
	// default — the counters differ between cold, warm and multi-worker
	// runs of one campaign, and the default JSON surface must stay
	// byte-identical across all of them.
	Caches *CampaignCacheSummary `json:"caches,omitempty"`
}

// CampaignCacheSummary is the opt-in JSON rendering of a campaign's
// cache counters: the in-memory memo layer, the persistent evaluation
// store and the rendered-sequence cache.
type CampaignCacheSummary struct {
	MemoHits         int `json:"memo_hits"`
	MemoMisses       int `json:"memo_misses"`
	EvalSimulations  int `json:"eval_simulations"`
	EvalDiskHits     int `json:"eval_disk_hits"`
	EvalPublished    int `json:"eval_published"`
	EvalDegradations int `json:"eval_degradations"`
	EvalEvictions    int `json:"eval_evictions"`
	SeqRenders       int `json:"seq_renders"`
	SeqDiskHits      int `json:"seq_disk_hits"`
	SeqMemoryHits    int `json:"seq_memory_hits"`
	SeqDegradations  int `json:"seq_degradations"`
	SeqEvictions     int `json:"seq_evictions"`
}

// WriteCampaignTable renders the report as an aligned table.
func WriteCampaignTable(w io.Writer, r *CampaignReport) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	header := "scenario\tdevice\tfid\tevals\tfull\tfront\tbestFPS\tbestATE(m)\trobustFPS\trobustATE(m)\trobustRank\trobustOK"
	if r.Transfer {
		header += "\tdonors\tseeds"
	}
	fmt.Fprintln(tw, header)
	for _, c := range r.Cells {
		best := "-"
		bestATE := "-"
		if c.Feasible {
			best = fmt.Sprintf("%.1f", fps(c.BestRuntime))
			bestATE = fmt.Sprintf("%.4f", c.BestMaxATE)
		}
		fid := c.Fidelity
		if fid == "" {
			fid = "-"
		}
		if c.Failed {
			// A quarantined cell renders a recognisable row instead of
			// zeros masquerading as measurements.
			fid = "failed"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%d\t%d\t%s\t%s\t%.1f\t%.4f\t%d\t%v",
			c.Scenario, c.Device, fid, c.Evaluations, c.FullFidelityEvals, c.FrontSize,
			best, bestATE, fps(c.RobustRuntime), c.RobustMaxATE, c.RobustRank, c.RobustFeasible)
		if r.Transfer {
			donors := "-" // anchor: explored from scratch
			if c.TransferBorrower {
				donors = strings.Join(c.TransferDonors, "+")
				if donors == "" {
					donors = "degraded" // every donor unusable; explored from scratch
				}
			}
			fmt.Fprintf(tw, "\t%s\t%d", donors, c.TransferSeeds)
		}
		fmt.Fprintln(tw)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "\nrobust configuration (of %d candidates, worst rank %d, feasible everywhere: %v):\n  %s\n",
		r.Candidates, r.RobustWorstRank, r.RobustFeasibleEverywhere, r.RobustConfig); err != nil {
		return err
	}
	if r.Transfer {
		if _, err := fmt.Fprintf(w, "transfer: %d anchors (%d full-fidelity evals), %d borrowers (%d full-fidelity evals, %d seeds borrowed), savings %.1f%% per cell\n",
			r.TransferAnchors, r.TransferAnchorFullEvals, r.TransferBorrowers,
			r.TransferBorrowerFullEvals, r.TransferSeedsBorrowed, r.TransferSavingsPct); err != nil {
			return err
		}
	}
	return nil
}

// WriteCampaignCSV emits one row per cell, suitable for external
// plotting of cross-scenario comparisons.
func WriteCampaignCSV(w io.Writer, r *CampaignReport) error {
	// The promoted column always reads 0 (every cell explores at full
	// fidelity); it stays so that the CSV schema does not change.
	header := "scenario,device,fidelity,promoted,failed,evaluations,full_fidelity,low_fidelity,front_size,feasible,best_runtime,best_max_ate,best_power,robust_runtime,robust_max_ate,robust_rank,robust_feasible"
	if r.Transfer {
		// Transfer provenance columns appear only in transfer campaigns,
		// keeping transfer-off CSVs byte-identical to pre-transfer ones.
		header += ",transfer_borrower,transfer_donors,transfer_seeds"
	}
	if _, err := fmt.Fprintln(w, header); err != nil {
		return err
	}
	for _, c := range r.Cells {
		feas, rfeas, failed := 0, 0, 0
		if c.Feasible {
			feas = 1
		}
		if c.RobustFeasible {
			rfeas = 1
		}
		if c.Failed {
			failed = 1
		}
		if _, err := fmt.Fprintf(w, "%s,%s,%s,0,%d,%d,%d,%d,%d,%d,%.6f,%.6f,%.6f,%.6f,%.6f,%d,%d",
			c.Scenario, c.Device, c.Fidelity, failed, c.Evaluations, c.FullFidelityEvals,
			c.LowFidelityEvals, c.FrontSize,
			feas, c.BestRuntime, c.BestMaxATE, c.BestPower,
			c.RobustRuntime, c.RobustMaxATE, c.RobustRank, rfeas); err != nil {
			return err
		}
		if r.Transfer {
			borrower := 0
			if c.TransferBorrower {
				borrower = 1
			}
			// Donors are ";"-joined: the labels contain "/" but never ","
			// or ";", so the column stays a single CSV field.
			if _, err := fmt.Fprintf(w, ",%d,%s,%d",
				borrower, strings.Join(c.TransferDonors, ";"), c.TransferSeeds); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// WriteCampaignProvenance renders the execution-provenance table of a
// checkpointed campaign: per cell, the fidelity its reported results
// were explored at, whether it was resumed from a checkpoint rather
// than explored in this run,
// who produced the artifact (a worker id, "local", or "store"), and
// whether the cell was quarantined. Resumption and ownership depend on
// how the run was interrupted and which worker won which lease, so
// this table is deliberately separate from the deterministic report
// writers (CLIs send it to stderr, keeping the report byte-comparable
// across fresh, resumed and multi-worker runs).
func WriteCampaignProvenance(w io.Writer, r *CampaignReport) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "scenario\tdevice\tfid\tresumed\towner\tseq\tfailed\tevals\tfull\tlow")
	for _, c := range r.Cells {
		fid := c.Fidelity
		if fid == "" {
			fid = "-"
		}
		owner := c.Owner
		if owner == "" {
			owner = "-"
		}
		seq := c.SeqSource
		if seq == "" {
			seq = "-"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%v\t%s\t%s\t%v\t%d\t%d\t%d\n",
			c.Scenario, c.Device, fid, c.Resumed, owner, seq, c.Failed,
			c.Evaluations, c.FullFidelityEvals, c.LowFidelityEvals)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "seqcache: renders=%d disk-hits=%d memory-hits=%d degradations=%d evictions=%d\n",
		r.SeqRenders, r.SeqDiskHits, r.SeqMemoryHits, r.SeqDegradations, r.SeqEvictions); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "evalstore: simulations=%d disk-hits=%d published=%d degradations=%d evictions=%d\n",
		r.EvalSimulations, r.EvalDiskHits, r.EvalPublished, r.EvalDegradations, r.EvalEvictions); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "memo: hits=%d misses=%d\n", r.MemoHits, r.MemoMisses)
	return err
}

// WriteCampaignJSON emits the whole report as indented JSON (field
// order is fixed by the struct, so the bytes are deterministic).
func WriteCampaignJSON(w io.Writer, r *CampaignReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// fps converts a per-frame latency to a frame rate (0 stays 0).
func fps(runtime float64) float64 {
	if runtime <= 0 {
		return 0
	}
	return 1 / runtime
}
