package campaign

import (
	"bytes"
	"os"
	"strings"
	"testing"
	"time"

	"slamgo/internal/sharedfs"
)

// noTempFiles fails the test when the store directory holds leftover
// temp files — crash-safety debris that would accumulate forever in a
// shared directory.
func noTempFiles(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".tmp-") {
			t.Fatalf("temp file leaked: %s", e.Name())
		}
	}
}

// TestFaultInjectedStoreByteIdentical runs a campaign over a store that
// throws scheduled write and read faults — a full disk mid-save, a torn
// write, an EIO mid-load — and requires the retry layer to absorb all
// of them: the report must be byte-identical to an unfaulted run and
// the store directory clean. Single worker, so the deterministic op
// indices land where the plan intends.
func TestFaultInjectedStoreByteIdentical(t *testing.T) {
	_, refBytes, _ := referenceRun(t)

	dir := t.TempDir()
	opts := resumeOptions(1, dir)
	opts.Resume = true
	fs := &sharedfs.FaultPlan{
		// Save op 1 dies before writing; its retry is op 2. Save op 3
		// tears the published artifact in half; its retry rewrites it.
		Save: map[int]sharedfs.FaultKind{1: sharedfs.FaultWriteError, 3: sharedfs.FaultShortWrite},
		// Load op 0 throws EIO; its retry is op 1.
		Load: map[int]sharedfs.FaultKind{0: sharedfs.FaultReadError},
	}
	opts.storeFaults = fs
	opts.sleepFn = func(time.Duration) {} // recorded schedule, no real waits
	res, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(renderReport(t, res), refBytes) {
		t.Fatal("faulted run diverges from unfaulted run")
	}
	if fs.Injected() != 3 {
		t.Fatalf("injected %d faults, want 3 — the schedule missed its ops", fs.Injected())
	}
	noTempFiles(t, dir)
}

// TestCorruptArtifactRecomputed flips the bytes of a checkpointed
// artifact under a resumed run: the store must miss (not error, not
// return damaged data), the campaign must recompute exactly that cell,
// and the report must come out byte-identical.
func TestCorruptArtifactRecomputed(t *testing.T) {
	dir := t.TempDir()
	first, err := Run(resumeOptions(1, dir))
	if err != nil {
		t.Fatal(err)
	}
	firstBytes := renderReport(t, first)

	var sims simCounter
	opts := resumeOptions(1, dir)
	opts.Resume = true
	opts.observeSimulation = sims.hook
	// Load op 0 is the first cell's exploration artifact: rot its bytes
	// on disk before the store reads them.
	fs := &sharedfs.FaultPlan{Load: map[int]sharedfs.FaultKind{0: sharedfs.FaultCorruptRead}}
	opts.storeFaults = fs
	again, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(renderReport(t, again), firstBytes) {
		t.Fatal("recovery from corrupt artifact diverges from original run")
	}
	if fs.Injected() != 1 {
		t.Fatalf("injected %d faults, want 1", fs.Injected())
	}
	// Exactly the corrupted cell re-simulated — its exploration only;
	// every other artifact still resumed.
	if sims.explored() == 0 {
		t.Fatal("corrupt artifact was not recomputed")
	}
	if n := sims.total() - sims.explored(); n != 0 {
		t.Fatalf("%d non-exploration simulations on resume, want 0", n)
	}
	noTempFiles(t, dir)
}
