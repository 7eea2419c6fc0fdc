// Package sharedfs is the one content-addressed artifact store of the
// repository and the crash-safety primitives it is built from. Three
// stores are codecs over it, each keeping only its own format, keys and
// counters:
//
//   - the campaign checkpoint store (internal/campaign): versioned JSON
//     envelopes, one flat "<name>.json" file per stage artifact;
//   - the rendered-sequence cache (internal/seqcache): "SQC1" frames,
//     one flat "<key>.seq" file per sequence;
//   - the evaluation store (internal/evalstore): "EVR1" metric records,
//     sharded as "<2hex>/<key>.evr".
//
// Store owns everything they share. Open creates the directory, sweeps
// the debris SIGKILLed processes leave behind (stale temp files,
// orphaned leases) and records an unusable directory as a broken
// store. Load verifies every artifact — any defect (absent, truncated,
// torn, bit-rotted, version-mismatched, misfiled) is a miss, never bad
// data — and Save publishes atomically (temp file + fsync + rename);
// both ride the bounded deterministic retry ladder over transient I/O
// faults and run through the one fault injector (FaultPlan). An
// optional size cap is enforced by deterministic eviction over a
// running size estimate.
//
// Once is the one compute-once ladder: load, else acquire the item's
// worker lease, re-check (a peer may have published between the miss
// and the acquire), and compute and publish under a heartbeat that a
// deferred stop releases even when the computation panics; else back
// off and reload until the artifact appears, the holder's lease
// expires, or the caller's poll bound runs out. Fetch wraps Once in the
// caches' never-fatal policy: every store failure degrades to inline
// computation, logged and counted, and the only error out of it is the
// computation's own.
//
// Correctness never rests on the leases: every writer of a key produces
// identical bytes and writes are atomic, so a duplicated computation is
// wasted work, not a wrong result.
package sharedfs

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Codec maps one store's values to artifact bytes and back. Encode must
// be a pure function of its inputs — every writer of a key produces
// identical bytes, which is what makes concurrent writers benign.
// Decode verifies the bytes and returns the key they were encoded
// under; any error marks them damaged, which Load treats as a miss.
type Codec[V any] interface {
	Encode(key string, v V) ([]byte, error)
	Decode(data []byte) (key string, v V, err error)
}

// Config describes one store: its directory and file layout, its size
// cap, and the lease, logging and clock plumbing.
type Config struct {
	// Dir is the store directory; empty means no disk at all (Fetch
	// computes every item, counted as a plain computation).
	Dir string
	// Label prefixes log lines and errors ("campaign", "seqcache", ...).
	Label string
	// Ext is the artifact file extension, e.g. ".seq".
	Ext string
	// Shard maps a key onto its two-character subdirectory; nil keeps
	// every artifact flat in Dir. Leases always live flat in Dir.
	Shard func(key string) string
	// MaxBytes caps the artifacts' total size; 0 means unbounded.
	MaxBytes int64
	// Worker names this process in lease files; empty disables leases
	// (Once then loads or computes without cross-process coordination).
	Worker string
	// LeaseTTL is the heartbeat deadline after which a peer may take a
	// lease over; default 10s.
	LeaseTTL time.Duration
	// Log (may be nil) receives miss, degradation and eviction lines.
	Log func(format string, args ...any)
	// Sleep (nil = time.Sleep) paces retries and lease polls.
	Sleep func(time.Duration)
	// Now (nil = time.Now) is the lease and debris clock.
	Now func() time.Time
}

// Counters count a store's Fetch and eviction activity since Open.
type Counters struct {
	Computes, DiskHits, Published, Degradations, Evictions int
}

// Store is a content-addressed artifact store over one directory. Safe
// for concurrent use by any number of goroutines; any number of
// processes may share its directory.
type Store[V any] struct {
	cfg    Config
	codec  Codec[V]
	leases *LeaseManager // nil without cfg.Worker
	faults *FaultPlan
	broken bool // directory unusable: Once answers every key Inline

	mu        sync.Mutex
	diskBytes int64 // running size estimate; authoritative rescan on evict
	counts    Counters
}

// Open opens (creating if needed) a store over cfg.Dir and sweeps its
// debris. The store is always usable: a directory that cannot be
// created is returned as an error alongside a broken store, so callers
// that must not fail (the caches) degrade while callers that must (the
// checkpoint store) report it.
func Open[V any](cfg Config, codec Codec[V]) (*Store[V], error) {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 10 * time.Second
	}
	if cfg.Log == nil {
		cfg.Log = func(string, ...any) {}
	}
	if cfg.Sleep == nil {
		cfg.Sleep = time.Sleep
	}
	s := &Store[V]{cfg: cfg, codec: codec}
	if cfg.Dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		s.broken = true
		return s, err
	}
	for _, dir := range append([]string{cfg.Dir}, s.shardDirs()...) {
		SweepDebris(dir, DefaultDebrisAge, cfg.Now)
	}
	if cfg.Worker != "" {
		s.leases = NewLeaseManager(cfg.Dir, cfg.Worker, cfg.LeaseTTL, cfg.Now)
	}
	if cfg.MaxBytes > 0 {
		_, s.diskBytes = s.scan()
	}
	return s, nil
}

// Path returns where key's artifact lives (test and tooling surface —
// the fault suites damage files in place).
func (s *Store[V]) Path(key string) string {
	if s.cfg.Shard == nil {
		return filepath.Join(s.cfg.Dir, key+s.cfg.Ext)
	}
	return filepath.Join(s.cfg.Dir, s.cfg.Shard(key), key+s.cfg.Ext)
}

// InjectFaults arms a fault plan on every later save and load attempt
// (crash-safety tests only; nil disarms).
func (s *Store[V]) InjectFaults(plan *FaultPlan) { s.faults = plan }

// Counters returns a snapshot of the store's counters.
func (s *Store[V]) Counters() Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counts
}

// count mutates the counters under the store lock.
func (s *Store[V]) count(f func(*Counters)) {
	s.mu.Lock()
	f(&s.counts)
	s.mu.Unlock()
}

// Load reads and verifies key's artifact. hit=false with a nil error is
// a clean miss (absent or damaged — damage is logged, recomputing
// repairs it); a non-nil error is a real I/O fault that survived the
// retry ladder. Each attempt is one fault-plan op; misses are never
// retried.
func (s *Store[V]) Load(key string) (v V, hit bool, err error) {
	path := s.Path(key)
	err = DefaultRetryPolicy().Retry(s.cfg.Label+": loading "+key, s.cfg.Sleep, func() error {
		hit = false
		if err := s.faults.load(path); err != nil {
			return err
		}
		data, err := os.ReadFile(path)
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		if err != nil {
			return err
		}
		got, val, err := s.codec.Decode(data)
		if err == nil && got != key {
			err = fmt.Errorf("artifact is keyed %s (misfiled)", got)
		}
		if err != nil {
			s.cfg.Log("%s: %s: %v; treating as miss", s.cfg.Label, key, err)
			return nil
		}
		v, hit = val, true
		return nil
	})
	return v, hit, err
}

// Save publishes key's artifact atomically, riding the retry ladder
// over transient faults (each attempt is one fault-plan op), then
// enforces the size cap.
func (s *Store[V]) Save(key string, v V) error {
	data, err := s.codec.Encode(key, v)
	if err != nil {
		return err
	}
	path := s.Path(key)
	dir := filepath.Dir(path)
	err = DefaultRetryPolicy().Retry(s.cfg.Label+": saving "+key, s.cfg.Sleep, func() error {
		return s.faults.save(path, func() error {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return err
			}
			return WriteFileAtomic(dir, path, key, data)
		})
	})
	if err != nil {
		return err
	}
	if s.cfg.MaxBytes > 0 {
		s.mu.Lock()
		s.diskBytes += int64(len(data))
		over := s.diskBytes > s.cfg.MaxBytes
		s.mu.Unlock()
		if over {
			s.evict(key)
		}
	}
	return nil
}

// shardDirs lists the existing two-character shard subdirectories in
// lexicographic order (none for a flat store).
func (s *Store[V]) shardDirs() []string {
	if s.cfg.Shard == nil {
		return nil
	}
	ents, _ := os.ReadDir(s.cfg.Dir)
	var out []string
	for _, e := range ents {
		if e.IsDir() && len(e.Name()) == 2 {
			out = append(out, filepath.Join(s.cfg.Dir, e.Name()))
		}
	}
	return out
}

// artifact is one file found by scan.
type artifact struct {
	key  string
	size int64
}

// scan lists every artifact in lexicographic key order with their total
// size (best-effort: unreadable entries count as absent).
func (s *Store[V]) scan() ([]artifact, int64) {
	dirs := []string{s.cfg.Dir}
	if s.cfg.Shard != nil {
		dirs = s.shardDirs()
	}
	var arts []artifact
	var total int64
	for _, dir := range dirs {
		ents, _ := os.ReadDir(dir)
		for _, e := range ents {
			if e.IsDir() || !strings.HasSuffix(e.Name(), s.cfg.Ext) {
				continue
			}
			if info, err := e.Info(); err == nil {
				arts = append(arts, artifact{strings.TrimSuffix(e.Name(), s.cfg.Ext), info.Size()})
				total += info.Size()
			}
		}
	}
	sort.Slice(arts, func(i, j int) bool { return arts[i].key < arts[j].key })
	return arts, total
}

// evict enforces MaxBytes after a save: rescan (the authoritative size —
// the running estimate cannot see other processes' writes), then remove
// artifacts in lexicographic key order — a pure function of the
// directory contents, so every cooperating process evicts identically —
// until under budget. The just-published key is exempt (evicting what
// the caller is about to use would thrash). Best-effort: a failed
// removal is logged, and an evicted artifact a peer still wanted is
// just a future miss.
func (s *Store[V]) evict(just string) {
	arts, total := s.scan()
	for _, a := range arts {
		if total <= s.cfg.MaxBytes {
			break
		}
		if a.key == just {
			continue
		}
		if err := os.Remove(s.Path(a.key)); err != nil {
			s.cfg.Log("%s: evict %s: %v", s.cfg.Label, a.key, err)
			continue
		}
		total -= a.size
		s.count(func(c *Counters) { c.Evictions++ })
		s.cfg.Log("%s: evicted %s (%d bytes) to stay under %d", s.cfg.Label, a.key, a.size, s.cfg.MaxBytes)
	}
	s.mu.Lock()
	s.diskBytes = total
	s.mu.Unlock()
}

// Outcome reports how Once (or Fetch) produced an item.
type Outcome int

const (
	// Failed: load reported a real I/O fault or cancel fired; the
	// returned error says which. Fetch never returns it.
	Failed Outcome = iota
	// Loaded: a verified artifact answered — a prior run's, or a peer's
	// that appeared while this worker waited.
	Loaded
	// Computed: the item was computed here, under its lease when the
	// store has leases.
	Computed
	// Inline: the store was abandoned for this item — an unusable
	// directory, a lease fault, a holder that never published within the
	// poll bound or (Fetch only) a failed publish. Once's error says why
	// and its caller computes without the store.
	Inline
)

// Once runs the compute-once ladder for key: load; else claim the
// key's lease, re-check, and compute under a heartbeat that a deferred
// stop releases; else back off (10ms doubling to 200ms) and go round
// again. load reports a verified artifact (hit) and compute produces
// and publishes the item; both capture their results in the caller.
// maxPolls bounds how many times this worker backs off behind a live
// holder before returning Inline (0 waits as long as the holder
// heartbeats; a dead holder's lease expires and is taken over). cancel
// (may be nil) is checked at the start of every turn.
func (s *Store[V]) Once(key string, maxPolls int, cancel func() error, load func() (bool, error), compute func()) (Outcome, error) {
	if s.broken {
		return Inline, errors.New("store directory unusable")
	}
	wait := 10 * time.Millisecond
	for polls := 0; ; polls++ {
		if cancel != nil {
			if err := cancel(); err != nil {
				return Failed, err
			}
		}
		if hit, err := load(); err != nil || hit {
			return loaded(hit, err)
		}
		if s.leases == nil {
			compute()
			return Computed, nil
		}
		lease, acquired, err := s.leases.TryAcquire(key)
		if err != nil {
			return Inline, err
		}
		if acquired {
			return s.underLease(lease, load, compute)
		}
		if maxPolls > 0 && polls >= maxPolls {
			return Inline, errors.New("the worker holding the lease never published")
		}
		s.cfg.Sleep(wait)
		wait = min(2*wait, 200*time.Millisecond)
	}
}

// underLease is Once's rung for a held lease: the heartbeat runs until
// the deferred stop releases the lease, even when compute panics (a
// panicking item must not leave a live-looking lease that wedges its
// peers until the poll bound).
func (s *Store[V]) underLease(lease *Lease, load func() (bool, error), compute func()) (Outcome, error) {
	defer Heartbeat(lease, s.cfg.LeaseTTL, s.cfg.Log)()
	// Re-check: a peer may have published and released the lease
	// between this worker's miss and its acquire.
	if hit, err := load(); err != nil || hit {
		return loaded(hit, err)
	}
	compute()
	return Computed, nil
}

// loaded maps a load result that ends the ladder onto its outcome.
func loaded(hit bool, err error) (Outcome, error) {
	if err != nil {
		return Failed, err
	}
	return Loaded, nil
}

// Fetch returns key's value through the caches' never-fatal ladder:
// a verified disk hit, else compute-and-publish under Once, else inline
// computation (logged and counted as a degradation). publish (nil =
// always) filters which computed values may be persisted. A failed
// publish still returns the computed value — only the store failed.
// The only error Fetch returns is compute's own.
func (s *Store[V]) Fetch(key string, maxPolls int, compute func() (V, error), publish func(V) bool) (V, Outcome, error) {
	if s.cfg.Dir == "" {
		// No disk: computing is the store working as configured, not
		// a degradation.
		v, err := compute()
		if err == nil {
			s.count(func(c *Counters) { c.Computes++ })
		}
		return v, Computed, err
	}
	var v V
	var cerr error
	got := Computed
	how, err := s.Once(key, maxPolls, nil,
		func() (hit bool, err error) {
			v, hit, err = s.Load(key)
			return hit, err
		},
		func() { v, got, cerr = s.computeAndPublish(key, compute, publish) })
	switch how {
	case Loaded:
		s.count(func(c *Counters) { c.DiskHits++ })
		return v, Loaded, nil
	case Computed:
		return v, got, cerr
	}
	return s.Inline(key, err, compute)
}

// computeAndPublish is Fetch's compute rung.
func (s *Store[V]) computeAndPublish(key string, compute func() (V, error), publish func(V) bool) (V, Outcome, error) {
	v, err := compute()
	if err != nil {
		return v, Computed, err
	}
	s.count(func(c *Counters) { c.Computes++ })
	if publish != nil && !publish(v) {
		return v, Computed, nil
	}
	if err := s.Save(key, v); err != nil {
		s.cfg.Log("%s: %s: save failed: %v; served inline", s.cfg.Label, key, err)
		s.count(func(c *Counters) { c.Degradations++ })
		return v, Inline, nil
	}
	s.count(func(c *Counters) { c.Published++ })
	return v, Computed, nil
}

// Inline is the bottom of the caches' ladder: compute without the
// store, log why, count it. Never fatal — the only error out of here is
// compute's own.
func (s *Store[V]) Inline(key string, why error, compute func() (V, error)) (V, Outcome, error) {
	s.cfg.Log("%s: %s: %v; degrading to inline computation", s.cfg.Label, key, why)
	v, err := compute()
	if err == nil {
		s.count(func(c *Counters) { c.Computes++; c.Degradations++ })
	}
	return v, Inline, err
}
