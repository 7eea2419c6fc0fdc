package sharedfs

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// The ladder suite: every behaviour the three store codecs (campaign
// checkpoints, seqcache, evalstore) inherit from Store is pinned here
// once, over a minimal text codec.

// textCodec stores a string as "key\nvalue": enough structure to tell
// a hit from a misfiled or damaged artifact.
type textCodec struct{}

func (textCodec) Encode(key, v string) ([]byte, error) { return []byte(key + "\n" + v), nil }

func (textCodec) Decode(data []byte) (string, string, error) {
	key, v, ok := strings.Cut(string(data), "\n")
	if !ok {
		return "", "", errors.New("no key line")
	}
	return key, v, nil
}

// openText opens a flat text store over dir with fast test plumbing.
func openText(t *testing.T, dir string, mut func(*Config)) *Store[string] {
	t.Helper()
	cfg := Config{
		Dir: dir, Label: "test", Ext: ".txt", Worker: "me", LeaseTTL: time.Minute,
		Log: t.Logf, Sleep: func(time.Duration) {},
	}
	if mut != nil {
		mut(&cfg)
	}
	s, err := Open[string](cfg, textCodec{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// compute returns a computation of v that counts its calls.
func compute(v string, calls *int) func() (string, error) {
	return func() (string, error) {
		*calls++
		return v, nil
	}
}

// noLease fails the test if key's lease file survived.
func noLease(t *testing.T, dir, key string) {
	t.Helper()
	if _, err := os.Stat(filepath.Join(dir, key+".lease")); !os.IsNotExist(err) {
		t.Fatalf("lease %s not released (stat err %v)", key, err)
	}
}

// TestConcurrentAcquireSingleWinner races 8 workers on each of 500
// fresh lease names: exactly one may win each. A lease created empty
// and written afterwards would let a peer read heartbeat 0, judge it
// expired and take it over, so two workers would compute the item.
func TestConcurrentAcquireSingleWinner(t *testing.T) {
	dir := t.TempDir()
	const workers, names = 8, 500
	managers := make([]*LeaseManager, workers)
	for w := range managers {
		managers[w] = NewLeaseManager(dir, fmt.Sprintf("w%d", w), time.Minute, nil)
	}
	for n := 0; n < names; n++ {
		name := fmt.Sprintf("item-%d", n)
		var wins sync.WaitGroup
		var mu sync.Mutex
		winners := 0
		start := make(chan struct{})
		for _, m := range managers {
			wins.Add(1)
			go func(m *LeaseManager) {
				defer wins.Done()
				<-start
				_, ok, err := m.TryAcquire(name)
				if err != nil {
					t.Errorf("%s: %v", name, err)
				}
				if ok {
					mu.Lock()
					winners++
					mu.Unlock()
				}
			}(m)
		}
		close(start)
		wins.Wait()
		if winners != 1 {
			t.Fatalf("%s: %d workers acquired a fresh lease, want exactly 1", name, winners)
		}
	}
}

func TestLadderDeadHolderTakeover(t *testing.T) {
	dir := t.TempDir()
	past := func() time.Time { return time.Now().Add(-time.Hour) }
	if _, ok, err := NewLeaseManager(dir, "dead", time.Minute, past).TryAcquire("k"); !ok || err != nil {
		t.Fatalf("planting dead lease: ok=%v err=%v", ok, err)
	}
	s := openText(t, dir, func(c *Config) { c.LeaseTTL = 50 * time.Millisecond })
	calls := 0
	v, how, err := s.Fetch("k", 600, compute("v", &calls), nil)
	if err != nil || how != Computed || v != "v" || calls != 1 {
		t.Fatalf("takeover = %q, %v, %v (calls=%d); want computed once", v, how, err, calls)
	}
	if n := s.Counters(); n.Computes != 1 || n.Published != 1 || n.Degradations != 0 {
		t.Fatalf("counters = %+v", n)
	}
	noLease(t, dir, "k")
}

func TestLadderPublicationArrivesDuringPoll(t *testing.T) {
	dir := t.TempDir()
	if _, ok, err := NewLeaseManager(dir, "peer", time.Hour, nil).TryAcquire("k"); !ok || err != nil {
		t.Fatalf("planting live lease: ok=%v err=%v", ok, err)
	}
	var s *Store[string]
	s = openText(t, dir, func(c *Config) {
		c.Sleep = func(time.Duration) { os.WriteFile(s.Path("k"), []byte("k\npeer"), 0o644) }
	})
	calls := 0
	v, how, err := s.Fetch("k", 600, compute("mine", &calls), nil)
	if err != nil || how != Loaded || v != "peer" || calls != 0 {
		t.Fatalf("wait = %q, %v, %v (calls=%d); want the peer's artifact", v, how, err, calls)
	}
	if n := s.Counters(); n.DiskHits != 1 {
		t.Fatalf("counters = %+v", n)
	}
}

func TestLadderWedgedHolderBoundedThenInline(t *testing.T) {
	dir := t.TempDir()
	if _, ok, err := NewLeaseManager(dir, "wedged", time.Hour, nil).TryAcquire("k"); !ok || err != nil {
		t.Fatalf("planting wedged lease: ok=%v err=%v", ok, err)
	}
	sleeps := 0
	s := openText(t, dir, func(c *Config) { c.Sleep = func(time.Duration) { sleeps++ } })
	calls := 0
	v, how, err := s.Fetch("k", 3, compute("v", &calls), nil)
	if err != nil || how != Inline || v != "v" || calls != 1 {
		t.Fatalf("wedged = %q, %v, %v (calls=%d); want inline", v, how, err, calls)
	}
	if sleeps != 3 {
		t.Fatalf("backed off %d times, want the poll bound 3", sleeps)
	}
	if n := s.Counters(); n.Degradations != 1 || n.Published != 0 {
		t.Fatalf("counters = %+v", n)
	}
	if _, err := os.Stat(s.Path("k")); !os.IsNotExist(err) {
		t.Fatal("inline computation published over a live holder")
	}
}

// TestLadderCancelCheckedEveryTurn: an unbounded caller (campaign
// cells wait as long as the holder heartbeats) still leaves the wait
// as soon as cancellation fires.
func TestLadderCancelCheckedEveryTurn(t *testing.T) {
	dir := t.TempDir()
	if _, ok, err := NewLeaseManager(dir, "peer", time.Hour, nil).TryAcquire("k"); !ok || err != nil {
		t.Fatalf("planting live lease: ok=%v err=%v", ok, err)
	}
	sleeps := 0
	s := openText(t, dir, func(c *Config) { c.Sleep = func(time.Duration) { sleeps++ } })
	stop := errors.New("stop")
	cancel := func() error {
		if sleeps == 5 {
			return stop
		}
		return nil
	}
	computed := false
	how, err := s.Once("k", 0, cancel, func() (bool, error) { return false, nil }, func() { computed = true })
	if how != Failed || err != stop || computed {
		t.Fatalf("Once = %v, %v (computed %v); want the cancel error", how, err, computed)
	}
}

// TestLadderPeerPublishesBetweenMissAndAcquire: a peer that publishes
// and releases its lease after this worker's miss but before its
// acquire must be loaded, not recomputed — the re-check under the lease.
func TestLadderPeerPublishesBetweenMissAndAcquire(t *testing.T) {
	dir := t.TempDir()
	s := openText(t, dir, nil)
	peer := openText(t, dir, func(c *Config) { c.Worker = "peer" })
	loads := 0
	load := func() (bool, error) {
		loads++
		_, hit, err := s.Load("k")
		if loads == 1 && !hit {
			// The peer finishes right after this worker's miss.
			calls := 0
			if _, how, err := peer.Fetch("k", 600, compute("peer", &calls), nil); how != Computed || err != nil {
				t.Fatalf("peer publish = %v, %v", how, err)
			}
		}
		return hit, err
	}
	computed := false
	how, err := s.Once("k", 600, nil, load, func() { computed = true })
	if how != Loaded || err != nil || computed {
		t.Fatalf("Once = %v, %v (computed %v); want the peer's artifact loaded", how, err, computed)
	}
	if loads != 2 {
		t.Fatalf("loads = %d, want the miss and the re-check", loads)
	}
	noLease(t, dir, "k")
}

func TestLadderPanickingComputeReleasesLease(t *testing.T) {
	dir := t.TempDir()
	s := openText(t, dir, nil)
	func() {
		defer func() { recover() }()
		s.Fetch("k", 600, func() (string, error) { panic("poisoned item") }, nil)
		t.Fatal("panic swallowed")
	}()
	noLease(t, dir, "k")
	calls := 0
	if _, how, _ := s.Fetch("k", 600, compute("v", &calls), nil); how != Computed || calls != 1 {
		t.Fatalf("key wedged after panic: %v (calls=%d)", how, calls)
	}
}

func TestEvictionIsDeterministicAndSparesNewestWrite(t *testing.T) {
	for _, shard := range []func(string) string{nil, func(k string) string { return k[len(k)-2:] }} {
		dir := t.TempDir()
		one := int64(len("key-a\nvalue"))
		s := openText(t, dir, func(c *Config) { c.Shard, c.MaxBytes = shard, 2*one+one/2 })
		// Shards (last two characters) order the keys differently from
		// their names: eviction must still go lexicographically by key.
		for _, key := range []string{"key-c", "key-b", "key-a"} {
			if err := s.Save(key, "value"); err != nil {
				t.Fatal(err)
			}
		}
		if n := s.Counters(); n.Evictions != 1 {
			t.Fatalf("evictions = %d, want 1", n.Evictions)
		}
		// key-a is the newest write and exempt; key-b is the smallest
		// remaining key.
		for key, want := range map[string]bool{"key-a": true, "key-b": false, "key-c": true} {
			if _, err := os.Stat(s.Path(key)); (err == nil) != want {
				t.Fatalf("sharded=%v: %s present=%v, want %v", shard != nil, key, err == nil, want)
			}
		}
	}
}

func TestOpenSweepsDebris(t *testing.T) {
	dir := t.TempDir()
	old := time.Now().Add(-time.Hour)
	shard := filepath.Join(dir, "ab")
	os.MkdirAll(shard, 0o755)
	stale := []string{filepath.Join(dir, ".tmp-k-1"), filepath.Join(shard, ".tmp-k-2")}
	for _, p := range stale {
		os.WriteFile(p, []byte("half"), 0o644)
		os.Chtimes(p, old, old)
	}
	fresh := filepath.Join(shard, ".tmp-k-3")
	os.WriteFile(fresh, []byte("in flight"), 0o644)
	NewLeaseManager(dir, "dead", time.Minute, func() time.Time { return old }).TryAcquire("k")

	openText(t, dir, func(c *Config) { c.Shard = func(string) string { return "ab" } })
	for _, p := range append(stale, filepath.Join(dir, "k.lease")) {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("debris %s survived open", p)
		}
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Errorf("live writer's temp file swept: %v", err)
	}
}

func TestUnusableDirectoryDegradesEverything(t *testing.T) {
	blocked := filepath.Join(t.TempDir(), "occupied")
	os.WriteFile(blocked, []byte("not a directory"), 0o644)
	s, err := Open[string](Config{Dir: blocked, Label: "test", Ext: ".txt", Worker: "me"}, textCodec{})
	if err == nil {
		t.Fatal("unusable directory opened cleanly")
	}
	calls := 0
	v, how, err := s.Fetch("k", 600, compute("v", &calls), nil)
	if err != nil || how != Inline || v != "v" || calls != 1 {
		t.Fatalf("broken store = %q, %v, %v (calls=%d); want inline", v, how, err, calls)
	}
	if n := s.Counters(); n.Computes != 1 || n.Degradations != 1 {
		t.Fatalf("counters = %+v", n)
	}
}
