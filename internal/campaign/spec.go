package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"strings"

	"slamgo/internal/core"
)

// The campaign defaults, declared once: a zero Spec field normalizes to
// them, the cmd/experiments flags default to them, and
// Options.applyDefaults fills a library caller's zero options from them.
const (
	defaultSeed                = 1
	defaultRandomSamples       = 20
	defaultActiveIterations    = 5
	defaultBatchPerIteration   = 4
	defaultPromoteFraction     = 0.25
	defaultCellPromoteFraction = 0.5
)

// defaultDevices are the default targets: the paper's board and one
// catalogue phone.
var defaultDevices = []string{"odroid-xu3", "pixel-adreno530"}

// Spec is a campaign as both front-ends take it: cmd/experiments binds
// it to flags (BindFlags) and cmd/dseserve decodes it from the JSON body
// of a submission. Both then call Normalize and Options, so one campaign
// resolves to the same Options, and renders the same report bytes,
// whichever front-end ran it.
//
// A zero field means the default: seed 1, all six scenarios on
// odroid-xu3 and pixel-adreno530, 20 random samples, 5 active
// iterations of batch 4, promote fractions 0.25 and 0.5, no fidelity
// ladders, 3 transfer seeds. Options rejects a negative count, stride
// or fraction.
type Spec struct {
	// Scenarios and Devices name the campaign grid.
	Scenarios []string `json:"scenarios,omitempty"`
	Devices   []string `json:"devices,omitempty"`
	// Quick selects the reduced workload scale and its 0.08 accuracy
	// limit.
	Quick bool  `json:"quick,omitempty"`
	Seed  int64 `json:"seed,omitempty"`
	// Exploration budget per cell.
	RandomSamples     int `json:"random_samples,omitempty"`
	ActiveIterations  int `json:"active_iterations,omitempty"`
	BatchPerIteration int `json:"batch_per_iteration,omitempty"`
	// Workers is the parallel evaluation worker count (0 = all CPUs).
	// Reports are bit-identical for any value, so ID excludes it:
	// resubmitting a spec with another worker count joins the existing
	// job.
	Workers int `json:"workers,omitempty"`
	// Intra-cell multi-fidelity ladder.
	FidelityStride  int     `json:"fidelity_stride,omitempty"`
	PromoteFraction float64 `json:"promote_fraction,omitempty"`
	// Cell-level multi-fidelity ladder.
	CellStride          int     `json:"cell_stride,omitempty"`
	CellPromoteFraction float64 `json:"cell_promote_fraction,omitempty"`
	// Cross-cell transfer learning.
	Transfer      bool `json:"transfer,omitempty"`
	TransferSeeds int  `json:"transfer_seeds,omitempty"`
	// Knowledge adds per-cell decision rules to the JSON report.
	Knowledge bool `json:"knowledge,omitempty"`
}

// BindFlags registers one cmd/experiments flag per field, each
// defaulting to the value Normalize fills in for zero.
func (s *Spec) BindFlags(fs *flag.FlagSet) {
	s.Devices = append([]string(nil), defaultDevices...)
	fs.Var((*nameList)(&s.Scenarios), "campaign-scenes", "comma-separated scenario `names` for -campaign (lr_kt0..lr_kt3, of_kt0..of_kt1; empty = all six)")
	fs.Var((*nameList)(&s.Devices), "campaign-devices", "comma-separated device `names` for -campaign (odroid-xu3, desktop-gpu, or phone-catalogue names)")
	fs.BoolVar(&s.Quick, "quick", false, "reduced scale (faster, noisier numbers)")
	fs.Int64Var(&s.Seed, "seed", defaultSeed, "experiment seed")
	fs.IntVar(&s.RandomSamples, "random", defaultRandomSamples, "DSE random evaluations")
	fs.IntVar(&s.ActiveIterations, "active", defaultActiveIterations, "DSE active iterations")
	fs.IntVar(&s.BatchPerIteration, "batch", defaultBatchPerIteration, "DSE batch per iteration")
	fs.IntVar(&s.Workers, "workers", 0, "parallel evaluation workers (0 = all CPUs; results are identical for any value)")
	fs.IntVar(&s.FidelityStride, "mf-stride", 0, "multi-fidelity frame stride for the DSE (>1 screens candidates on a subsampled sequence; 0 = full fidelity only)")
	fs.Float64Var(&s.PromoteFraction, "mf-promote", defaultPromoteFraction, "fraction of each batch promoted to full-fidelity runs (with -mf-stride)")
	fs.IntVar(&s.CellStride, "campaign-cell-stride", 0, "cell-level multi-fidelity frame stride (>1 screens every cell on a subsampled sequence and promotes only competitive cells to full fidelity)")
	fs.Float64Var(&s.CellPromoteFraction, "campaign-cell-promote", defaultCellPromoteFraction, "fraction of grid cells promoted to full-fidelity exploration (with -campaign-cell-stride)")
	fs.BoolVar(&s.Transfer, "campaign-transfer", false, "warm-start off-diagonal cells from the grid-diagonal anchor cells' results: borrowers seed from donor winners on a reduced budget and bias acquisition with a donor-pooled prior (donor data steers sampling only — it never enters a cell's reported results)")
	fs.IntVar(&s.TransferSeeds, "campaign-transfer-seeds", 0, "seeding budget of a warm-started borrower cell (with -campaign-transfer; 0 = default 3, minimum 3)")
	fs.BoolVar(&s.Knowledge, "campaign-knowledge", false, "extract per-cell decision rules (paper §V 'knowledge extraction') from each full-fidelity cell's observations into the JSON report")
}

// nameList is a comma-separated list flag of trimmed, non-empty names.
type nameList []string

func (l *nameList) String() string { return strings.Join(*l, ",") }

func (l *nameList) Set(v string) error {
	*l = nil
	for _, name := range strings.Split(v, ",") {
		if name = strings.TrimSpace(name); name != "" {
			*l = append(*l, name)
		}
	}
	return nil
}

// Normalize fills every zero field with its default, in place, making
// specs canonical: two specs that describe the same campaign normalize
// to identical structs and so to identical IDs. A negative value is
// left for Options to reject.
func (s *Spec) Normalize() {
	if len(s.Scenarios) == 0 {
		for _, sc := range Scenarios(core.QuickScale()) {
			s.Scenarios = append(s.Scenarios, sc.Name)
		}
	}
	if len(s.Devices) == 0 {
		s.Devices = append([]string(nil), defaultDevices...)
	}
	orDefault(&s.Seed, defaultSeed)
	orDefault(&s.RandomSamples, defaultRandomSamples)
	orDefault(&s.ActiveIterations, defaultActiveIterations)
	orDefault(&s.BatchPerIteration, defaultBatchPerIteration)
	orDefault(&s.PromoteFraction, defaultPromoteFraction)
	orDefault(&s.CellPromoteFraction, defaultCellPromoteFraction)
}

func orDefault[T int | int64 | float64](v *T, def T) {
	if *v == 0 {
		*v = def
	}
}

// ID derives the campaign identity: the first 16 hex digits of the
// SHA-256 of the normalized spec's canonical JSON, with Workers zeroed
// first: worker count never changes campaign results (the determinism
// invariant), so it must not change identity either.
func (s Spec) ID() string {
	s.Workers = 0
	b, err := json.Marshal(s)
	if err != nil {
		// A Spec is plain data; Marshal cannot fail.
		panic(fmt.Sprintf("campaign: marshal spec: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// Options resolves a normalized spec into validated options. They carry
// no execution plumbing: callers add the store directories, resume and
// worker mode, cancellation and progress hooks. Every validation
// failure surfaces here, before any directory is created or any
// simulation runs.
func (s Spec) Options() (Options, error) {
	scale := core.DefaultScale()
	opts := Options{
		RandomSamples:       s.RandomSamples,
		ActiveIterations:    s.ActiveIterations,
		BatchPerIteration:   s.BatchPerIteration,
		Seed:                s.Seed,
		Workers:             s.Workers,
		FidelityStride:      s.FidelityStride,
		PromoteFraction:     s.PromoteFraction,
		CellStride:          s.CellStride,
		CellPromoteFraction: s.CellPromoteFraction,
		Transfer:            s.Transfer,
		TransferSeeds:       s.TransferSeeds,
		Knowledge:           s.Knowledge,
	}
	if s.Quick {
		scale = core.QuickScale()
		opts.AccuracyLimit = 0.08
	}
	var err error
	if opts.Scenarios, err = SelectScenarios(scale, s.Scenarios); err != nil {
		return Options{}, err
	}
	if opts.Targets, err = ResolveTargets(s.Seed, s.Devices); err != nil {
		return Options{}, err
	}
	if err := opts.Validate(); err != nil {
		return Options{}, err
	}
	return opts, nil
}
