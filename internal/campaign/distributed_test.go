package campaign

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"slamgo/internal/sharedfs"
)

// simClasses is the full set of simulation classes the hooks count.
var simClasses = []string{simScreen, simFull, simLadderLow, simCross}

// referenceRun executes the shared resume-suite campaign fresh (no
// checkpoints) with instrumented simulation counts, as the ground truth
// the distributed runs are compared against.
func referenceRun(t *testing.T) (*Result, []byte, *simCounter) {
	t.Helper()
	var sims simCounter
	opts := resumeOptions(1, "")
	opts.observeSimulation = sims.hook
	res, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	return res, renderReport(t, res), &sims
}

// TestCooperatingWorkersByteIdentical is the distributed acceptance
// check: three cooperating workers sharing one checkpoint directory
// split the grid through leases, every worker renders the identical
// report, and the summed simulation counts equal a single-process
// run's — no cell was computed twice and none was skipped.
func TestCooperatingWorkersByteIdentical(t *testing.T) {
	_, refBytes, refSims := referenceRun(t)

	const workers = 3
	dir := t.TempDir()
	results := make([]*Result, workers)
	errs := make([]error, workers)
	sims := make([]simCounter, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			opts := resumeOptions(2, dir)
			opts.WorkerID = fmt.Sprintf("w%d", w)
			opts.observeSimulation = sims[w].hook
			results[w], errs[w] = Run(opts)
		}(w)
	}
	wg.Wait()

	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		if !bytes.Equal(renderReport(t, results[w]), refBytes) {
			t.Fatalf("worker %d report diverges from single-process run", w)
		}
	}
	// Leases must have partitioned the work exactly: per class, the
	// workers' summed simulations equal the reference run's.
	for _, class := range simClasses {
		total := 0
		for w := range sims {
			total += sims[w].get(class)
		}
		if total != refSims.get(class) {
			t.Fatalf("class %s: workers simulated %d, reference %d — work lost or duplicated",
				class, total, refSims.get(class))
		}
	}
	// No lease files survive a completed campaign.
	leases, err := filepath.Glob(filepath.Join(dir, "*.lease"))
	if err != nil {
		t.Fatal(err)
	}
	if len(leases) != 0 {
		t.Fatalf("leases leaked after completion: %v", leases)
	}
}

// TestDeadWorkerTakeover simulates a SIGKILLed peer: a lease whose
// heartbeat is an hour stale squats on a cell, and a live worker must
// reclaim it, compute the cell, and finish the campaign byte-identical
// to an undisturbed run.
func TestDeadWorkerTakeover(t *testing.T) {
	_, refBytes, refSims := referenceRun(t)

	dir := t.TempDir()
	opts := resumeOptions(1, dir)
	r, err := newRunner(opts)
	if err != nil {
		t.Fatal(err)
	}
	name0 := r.artifactName(r.cells[0], FidelityScreen)
	past := func() time.Time { return time.Now().Add(-time.Hour) }
	if _, ok, err := sharedfs.NewLeaseManager(dir, "dead", time.Second, past).TryAcquire(name0); err != nil || !ok {
		t.Fatalf("staging dead worker's lease: ok=%v err=%v", ok, err)
	}

	var sims simCounter
	alive := resumeOptions(1, dir)
	alive.WorkerID = "alive"
	alive.LeaseTTL = 500 * time.Millisecond
	alive.observeSimulation = sims.hook
	res, err := Run(alive)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(renderReport(t, res), refBytes) {
		t.Fatal("takeover run diverges from undisturbed run")
	}
	if sims.total() != refSims.total() {
		t.Fatalf("takeover run simulated %d, reference %d", sims.total(), refSims.total())
	}
	for _, c := range res.Cells {
		if c.Owner != "alive" {
			t.Fatalf("cell %s/%s owner = %q, want alive", c.Cell.Scenario.Name, c.Cell.Target.Name, c.Owner)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, name0+".lease")); !os.IsNotExist(err) {
		t.Fatalf("reclaimed lease not released (stat err %v)", err)
	}
}

// TestWorkerLoadsPeerResult covers the wait-then-load path: a live
// foreign lease holds a cell, the peer's artifact appears while this
// worker polls, and the worker must consume it — zero simulations for
// that cell — and still render the reference report.
func TestWorkerLoadsPeerResult(t *testing.T) {
	refDir := t.TempDir()
	var refSims simCounter
	refOpts := resumeOptions(1, refDir)
	refOpts.observeSimulation = refSims.hook
	ref, err := Run(refOpts)
	if err != nil {
		t.Fatal(err)
	}
	refBytes := renderReport(t, ref)

	dir := t.TempDir()
	r, err := newRunner(resumeOptions(1, dir))
	if err != nil {
		t.Fatal(err)
	}
	name0 := r.artifactName(r.cells[0], FidelityScreen)
	// A live peer holds cell 0 (fresh heartbeat, long TTL)…
	if _, ok, err := sharedfs.NewLeaseManager(dir, "peer", time.Minute, nil).TryAcquire(name0); err != nil || !ok {
		t.Fatalf("staging peer lease: ok=%v err=%v", ok, err)
	}
	// …and publishes its artifact shortly after the worker starts
	// polling, exactly as a slower peer would (copy + atomic rename, the
	// same publication discipline Store.Save uses).
	go func() {
		time.Sleep(100 * time.Millisecond)
		data, err := os.ReadFile(filepath.Join(refDir, name0+".json"))
		if err != nil {
			return
		}
		tmp := filepath.Join(dir, ".tmp-peer-artifact")
		if os.WriteFile(tmp, data, 0o644) == nil {
			os.Rename(tmp, filepath.Join(dir, name0+".json"))
		}
	}()

	var mu sync.Mutex
	cell0Screens := 0
	opts := resumeOptions(2, dir)
	opts.WorkerID = "w1"
	opts.LeaseTTL = 5 * time.Second
	opts.observeSimulation = func(cell int, class string) {
		if cell == 0 && class == simScreen {
			mu.Lock()
			cell0Screens++
			mu.Unlock()
		}
	}
	res, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(renderReport(t, res), refBytes) {
		t.Fatal("worker report diverges from reference")
	}
	if cell0Screens != 0 {
		t.Fatalf("cell 0 screened %d times despite the peer publishing it", cell0Screens)
	}
	if !res.Cells[0].Resumed {
		t.Fatal("peer-published cell not marked resumed")
	}
}
