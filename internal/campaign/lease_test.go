package campaign

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"slamgo/internal/sharedfs"
)

func TestLeaseAcquireAndContention(t *testing.T) {
	dir := t.TempDir()
	a := sharedfs.NewLeaseManager(dir, "a", time.Minute, nil)
	b := sharedfs.NewLeaseManager(dir, "b", time.Minute, nil)

	la, ok, err := a.TryAcquire("cell")
	if err != nil || !ok {
		t.Fatalf("TryAcquire = %v, %v; want acquired", ok, err)
	}
	if _, ok, err := b.TryAcquire("cell"); err != nil || ok {
		t.Fatalf("live lease taken over (ok=%v err=%v)", ok, err)
	}
	if w, expired, ok := b.Holder("cell"); !ok || w != "a" || expired {
		t.Fatalf("Holder = %q expired=%v ok=%v, want a/false/true", w, expired, ok)
	}
	if err := la.Renew(); err != nil {
		t.Fatalf("Renew: %v", err)
	}
	if err := la.Release(); err != nil {
		t.Fatalf("Release: %v", err)
	}
	if _, _, ok := b.Holder("cell"); ok {
		t.Fatal("released lease still present")
	}
	if _, ok, err := b.TryAcquire("cell"); err != nil || !ok {
		t.Fatalf("released lease not re-acquirable (ok=%v err=%v)", ok, err)
	}
}

func TestLeaseTakeoverAfterExpiry(t *testing.T) {
	dir := t.TempDir()
	// The dead worker's clock runs an hour behind, so its heartbeat is
	// born expired under any sane TTL — the injectable-clock stand-in for
	// a SIGKILLed process.
	past := func() time.Time { return time.Now().Add(-time.Hour) }
	dead := sharedfs.NewLeaseManager(dir, "dead", time.Second, past)
	if _, ok, err := dead.TryAcquire("cell"); err != nil || !ok {
		t.Fatalf("dead worker could not claim (ok=%v err=%v)", ok, err)
	}
	live := sharedfs.NewLeaseManager(dir, "live", time.Second, nil)
	if _, ok, err := live.TryAcquire("cell"); err != nil || !ok {
		t.Fatalf("expired lease not taken over (ok=%v err=%v)", ok, err)
	}
	if w, _, ok := live.Holder("cell"); !ok || w != "live" {
		t.Fatalf("Holder after takeover = %q ok=%v, want live", w, ok)
	}
}

func TestLeaseRenewDetectsLoss(t *testing.T) {
	dir := t.TempDir()
	past := func() time.Time { return time.Now().Add(-time.Hour) }
	a := sharedfs.NewLeaseManager(dir, "a", time.Second, past)
	la, ok, err := a.TryAcquire("cell")
	if err != nil || !ok {
		t.Fatalf("TryAcquire = %v, %v", ok, err)
	}
	b := sharedfs.NewLeaseManager(dir, "b", time.Minute, nil)
	if _, ok, err := b.TryAcquire("cell"); err != nil || !ok {
		t.Fatalf("takeover failed (ok=%v err=%v)", ok, err)
	}
	if err := la.Renew(); !errors.Is(err, sharedfs.ErrLeaseLost) {
		t.Fatalf("Renew after takeover = %v, want ErrLeaseLost", err)
	}
	// The lost holder's release must not tear down the new holder's lease.
	if err := la.Release(); err != nil {
		t.Fatalf("Release after loss: %v", err)
	}
	if w, _, ok := b.Holder("cell"); !ok || w != "b" {
		t.Fatalf("new lease removed by the lost holder (w=%q ok=%v)", w, ok)
	}
}

func TestCorruptLeaseExpires(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "cell.lease"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	m := sharedfs.NewLeaseManager(dir, "w", time.Minute, nil)
	if _, ok, err := m.TryAcquire("cell"); err != nil || !ok {
		t.Fatalf("corrupt lease wedged the cell (ok=%v err=%v)", ok, err)
	}
}

// TestLeaseFilesInvisibleToStore pins that a cell's lease sibling never
// shadows or impersonates its artifact: with a lease held, the artifact
// still loads, and a lease alone is a plain miss, not an artifact.
func TestLeaseFilesInvisibleToStore(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save("art", &cellArtifact{Scenario: "lr_kt0"}); err != nil {
		t.Fatal(err)
	}
	m := sharedfs.NewLeaseManager(dir, "w", time.Minute, nil)
	for _, name := range []string{"art", "other"} {
		if _, ok, err := m.TryAcquire(name); err != nil || !ok {
			t.Fatalf("TryAcquire(%s) = %v, %v", name, ok, err)
		}
	}
	var out cellArtifact
	if !loadHit(t, store, "art", &out) || out.Scenario != "lr_kt0" {
		t.Fatalf("leased artifact did not load: %+v", out)
	}
	if loadHit(t, store, "other", &out) {
		t.Fatal("a lease file loaded as an artifact")
	}
}
