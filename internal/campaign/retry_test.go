package campaign

import (
	"errors"
	"syscall"
	"testing"
	"time"

	"slamgo/internal/sharedfs"
)

// The checkpoint store rides the bounded deterministic retry ladder of
// internal/sharedfs. These tests pin it at the campaign's store surface
// with scheduled faults: transient faults are absorbed, persistent ones
// exhaust on a fixed backoff schedule, and misses are never retried.

// faultedStore opens a checkpoint store armed with plan whose retry
// backoff is recorded instead of slept.
func faultedStore(t *testing.T, plan *sharedfs.FaultPlan, slept *[]time.Duration) *Store {
	t.Helper()
	store, err := openStore(sharedfs.Config{
		Dir:   t.TempDir(),
		Sleep: func(d time.Duration) { *slept = append(*slept, d) },
	})
	if err != nil {
		t.Fatal(err)
	}
	store.fs.InjectFaults(plan)
	return store
}

func TestRetryStoreRecoversTransientFault(t *testing.T) {
	var slept []time.Duration
	plan := &sharedfs.FaultPlan{Save: map[int]sharedfs.FaultKind{0: sharedfs.FaultWriteError}}
	store := faultedStore(t, plan, &slept)
	if err := store.Save("x", 7); err != nil {
		t.Fatalf("Save after transient fault: %v", err)
	}
	if plan.Injected() != 1 {
		t.Fatalf("injected %d faults, want 1", plan.Injected())
	}
	if len(slept) != 1 || slept[0] != 10*time.Millisecond {
		t.Fatalf("backoff = %v, want [10ms]", slept)
	}
	var got int
	if !loadHit(t, store, "x", &got) || got != 7 {
		t.Fatalf("retried save not loadable (got %d)", got)
	}
}

func TestRetryStoreExhaustsDeterministically(t *testing.T) {
	var slept []time.Duration
	plan := &sharedfs.FaultPlan{Load: map[int]sharedfs.FaultKind{}}
	for i := 0; i < 6; i++ {
		plan.Load[i] = sharedfs.FaultReadError
	}
	store := faultedStore(t, plan, &slept)
	if err := store.Save("x", 7); err != nil {
		t.Fatal(err)
	}
	var got int
	if _, err := store.Load("x", &got); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Load = %v, want wrapped EIO", err)
	}
	if plan.Injected() != 5 {
		t.Fatalf("load attempts = %d, want 5 (policy attempts)", plan.Injected())
	}
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond, 80 * time.Millisecond}
	if len(slept) != len(want) {
		t.Fatalf("backoff = %v, want %v", slept, want)
	}
	for i := range want {
		if slept[i] != want[i] {
			t.Fatalf("backoff = %v, want %v (the deterministic ladder)", slept, want)
		}
	}
}

func TestRetryStoreNeverRetriesMiss(t *testing.T) {
	var slept []time.Duration
	// A retried miss would be load op 1 and fire this fault.
	plan := &sharedfs.FaultPlan{Load: map[int]sharedfs.FaultKind{1: sharedfs.FaultReadError}}
	store := faultedStore(t, plan, &slept)
	var got int
	ok, err := store.Load("absent", &got)
	if ok || err != nil {
		t.Fatalf("Load = %v, %v; want clean miss", ok, err)
	}
	if plan.Injected() != 0 || len(slept) != 0 {
		t.Fatalf("miss retried: %d faults fired, backoff %v", plan.Injected(), slept)
	}
}
