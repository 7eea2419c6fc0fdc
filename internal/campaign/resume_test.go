package campaign

import (
	"bytes"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"slamgo/internal/core"
)

// resumeOptions is the shared 2-scenario × 2-device campaign the
// checkpoint/resume tests run: small enough to re-run many times, on the
// multi-fidelity ladder (FidelityStride 2, half of each batch promoted),
// so every cell simulates a screening rung and a full-fidelity rung.
func resumeOptions(workers int, dir string) Options {
	// Smaller even than campaignScale: the resume suite runs this
	// campaign a dozen times (under -race in CI), and checkpoint
	// semantics do not need many pixels.
	base := core.Scale{Width: 48, Height: 36, Frames: 5, Noisy: false, Seed: 42}
	scen, err := SelectScenarios(base, []string{"lr_kt0", "of_kt0"})
	if err != nil {
		panic(err)
	}
	targets, err := ResolveTargets(42, []string{"odroid-xu3", "pixel-adreno530"})
	if err != nil {
		panic(err)
	}
	return Options{
		Scenarios:          scen,
		Targets:            targets,
		RandomSamples:      4,
		ActiveIterations:   1,
		BatchPerIteration:  2,
		AccuracyLimit:      0.1,
		Seed:               11,
		Workers:            workers,
		FidelityStride:     2,
		PromoteFraction:    0.5,
		MaxFrontCandidates: 1,
		CheckpointDir:      dir,
	}
}

// simCounter counts actual pipeline simulations by class, safely from
// worker goroutines.
type simCounter struct {
	mu     sync.Mutex
	counts map[string]int
}

func (c *simCounter) hook(_ int, class string) {
	c.mu.Lock()
	if c.counts == nil {
		c.counts = map[string]int{}
	}
	c.counts[class]++
	c.mu.Unlock()
}

func (c *simCounter) get(class string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counts[class]
}

func (c *simCounter) total() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, v := range c.counts {
		n += v
	}
	return n
}

// explored counts the exploration simulations: both rungs of the
// ladder.
func (c *simCounter) explored() int {
	return c.get(simFull) + c.get(simLadderLow)
}

// TestInterruptedResumeByteIdentical is the acceptance check of the
// staged model: a campaign killed at a stage boundary and resumed —
// under any worker count — renders a byte-identical report to an
// uninterrupted run, with the checkpointed stages proven (by evaluator
// call counts) to never re-simulate.
func TestInterruptedResumeByteIdentical(t *testing.T) {
	ref, err := Run(resumeOptions(1, ""))
	if err != nil {
		t.Fatal(err)
	}
	refBytes := renderReport(t, ref)
	// The uninterrupted reference: every cell explored here on both
	// rungs, and the robust phase cross-measured at full fidelity.
	for _, c := range ref.Cells {
		if c.Resumed || c.Fidelity != FidelityFull || c.LowFidelityEvals == 0 ||
			c.FullFidelityEvals == 0 || c.FullFidelityEvals >= c.Evaluations {
			t.Fatalf("fresh cell %s/%s: %+v", c.Cell.Scenario.Name, c.Cell.Target.Name, c)
		}
	}
	if !ref.HasRobust {
		t.Fatal("laddered campaign produced no robust configuration")
	}
	for j, m := range ref.Robust.PerCell {
		if m.LowFidelity {
			t.Fatalf("robust metrics in cell %d are low fidelity", j)
		}
	}

	cases := []struct {
		stopAfter Stage
		workers   int
	}{
		{StageExplore, 1},
		{StageExplore, 4},
		{StageExplore, 8},
		{StageCrossMeasure, 4},
	}
	for _, c := range cases {
		dir := t.TempDir()
		intr := resumeOptions(1, dir)
		intr.StopAfter = c.stopAfter
		stopped, err := Run(intr)
		if err != nil {
			t.Fatal(err)
		}
		if stopped.StoppedAfter != c.stopAfter {
			t.Fatalf("interrupted run stopped after %q, want %q", stopped.StoppedAfter, c.stopAfter)
		}
		if stopped.HasRobust {
			t.Fatal("interrupted run aggregated a robust configuration")
		}

		var sims simCounter
		opts := resumeOptions(c.workers, dir)
		opts.Resume = true
		opts.observeSimulation = sims.hook
		got, err := Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(renderReport(t, got), refBytes) {
			t.Fatalf("stop=%s workers=%d: resumed report diverges from uninterrupted run",
				c.stopAfter, c.workers)
		}
		// Explorations were checkpointed before the kill: the resumed run
		// must load them, never re-simulate them.
		if n := sims.explored(); n != 0 {
			t.Fatalf("stop=%s workers=%d: %d exploration simulations on resume, want 0",
				c.stopAfter, c.workers, n)
		}
		if c.stopAfter == StageCrossMeasure {
			// The cross-measurements were checkpointed too.
			if n := sims.get(simCross); n != 0 {
				t.Fatalf("stop=%s workers=%d: %d cross-measurements on resume, want 0",
					c.stopAfter, c.workers, n)
			}
		}
		for _, cell := range got.Cells {
			if !cell.Resumed {
				t.Fatalf("stop=%s workers=%d: cell %s/%s not marked resumed",
					c.stopAfter, c.workers, cell.Cell.Scenario.Name, cell.Cell.Target.Name)
			}
		}
	}
}

// TestCompletedCampaignResumesWithoutSimulation: restarting a campaign
// that already ran to completion re-renders the identical report from
// artifacts alone — zero pipeline simulations.
func TestCompletedCampaignResumesWithoutSimulation(t *testing.T) {
	dir := t.TempDir()
	first, err := Run(resumeOptions(1, dir))
	if err != nil {
		t.Fatal(err)
	}
	firstBytes := renderReport(t, first)

	var sims simCounter
	opts := resumeOptions(4, dir)
	opts.Resume = true
	opts.observeSimulation = sims.hook
	again, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if n := sims.total(); n != 0 {
		t.Fatalf("restarted completed campaign ran %d simulations, want 0", n)
	}
	if !bytes.Equal(renderReport(t, again), firstBytes) {
		t.Fatal("restarted completed campaign renders a different report")
	}
}

// TestChangedOptionInvalidatesArtifacts: the content-hashed keys mean a
// changed option misses the stale artifacts and recomputes, yielding
// the same result a fresh run of the new options produces.
func TestChangedOptionInvalidatesArtifacts(t *testing.T) {
	dir := t.TempDir()
	if _, err := Run(resumeOptions(1, dir)); err != nil {
		t.Fatal(err)
	}

	changed := resumeOptions(1, "")
	changed.AccuracyLimit = 0.12
	fresh, err := Run(changed)
	if err != nil {
		t.Fatal(err)
	}

	var sims simCounter
	resumed := resumeOptions(1, dir)
	resumed.AccuracyLimit = 0.12
	resumed.Resume = true
	resumed.observeSimulation = sims.hook
	got, err := Run(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if n := sims.explored(); n == 0 {
		t.Fatal("changed accuracy limit still hit stale exploration artifacts")
	}
	if !bytes.Equal(renderReport(t, got), renderReport(t, fresh)) {
		t.Fatal("resume with changed options diverges from a fresh run of those options")
	}
	for _, cell := range got.Cells {
		if cell.Resumed {
			t.Fatalf("cell %s/%s marked resumed despite invalidated artifacts",
				cell.Cell.Scenario.Name, cell.Cell.Target.Name)
		}
	}
}

// TestArtifactNamesStable pins the checkpoint names a store holds, so a
// store written by an earlier build keeps resuming: the exploration and
// cross-measurement artifacts of resumeOptions' four cells and the
// exploration artifact of a transfer borrower.
func TestArtifactNamesStable(t *testing.T) {
	dir := t.TempDir()
	if _, err := Run(resumeOptions(2, dir)); err != nil {
		t.Fatal(err)
	}
	stored, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, path := range stored {
		got = append(got, strings.TrimSuffix(filepath.Base(path), ".json"))
	}
	slices.Sort(got)
	want := []string{
		"cross-c000-7bdde58021ee68dd",
		"cross-c001-147e75c678657ebe",
		"cross-c002-1d0068423ee1c1f5",
		"cross-c003-11897bf852e97dd9",
		"full-c000-92b419e66a5723f0",
		"full-c001-c363311bbfefc71c",
		"full-c002-91750d0eb90d3025",
		"full-c003-7e759848b796dc95",
	}
	if !slices.Equal(got, want) {
		t.Errorf("store holds %v, want %v", got, want)
	}

	opts := resumeOptions(1, "")
	opts.Transfer = true
	r, err := newRunner(opts)
	if err != nil {
		t.Fatal(err)
	}
	if r.donors[1] == nil {
		t.Fatal("cell 1 is not a transfer borrower")
	}
	if got, want := r.artifactName(r.cells[1]), "full-c001-7f3fdc937d90be58"; got != want {
		t.Errorf("borrower artifact %s, want %s", got, want)
	}
}
