// Package evalstore is the persistent, content-addressed store of
// simulation results. A full-fidelity SLAM simulation dwarfs the cost
// of reading back its four metrics, and a campaign grid re-simulates
// the same configurations once per process, once per run, once per
// follow-up study: the in-memory hypermapper.MemoEvaluator forgets
// everything at process exit. This package is the disk tier behind
// those memos — every evaluation result is keyed by a canonical content
// hash of everything that determines it (the exact point encoding, the
// rendered sequence's content key, the device identity, the fidelity
// stride and a pipeline version), so resumed runs, cooperating worker
// processes and entirely separate campaigns sharing a store directory
// each simulate a distinct configuration exactly once, anywhere.
//
// The store is a codec over the one content-addressed store of
// internal/sharedfs — the same store the campaign checkpoints and the
// rendered-sequence cache use. This package keeps only what is its own:
// the "EVR1" record format (format.go), the scoped record keys, the
// "<2hex>/<key>.evr" sharded layout, the fidelity guard and its
// counters. Atomic writes, verified loads (any defect is a miss that
// re-simulation repairs in place), the retry ladder, lease
// single-flight across processes, deterministic eviction and the
// never-fatal degradation to inline simulation all come from
// sharedfs.Store.Fetch: the store can lose every byte it owns and the
// campaign still completes with an identical report, just slower.
//
// Fidelity invariants: the fidelity stride is part of every key, so a
// subsampled screening result can never answer a full-fidelity lookup
// (different key) — and as defence in depth, metrics flagged
// LowFidelity are never published and a record carrying the flag is
// rejected on load as a defect. Metrics flagged Failed are ordinary
// deterministic evaluator outcomes (lost tracking, invalid
// configuration) and round-trip exactly: a Failed record answers a
// lookup as Failed, which callers treat identically to a fresh failed
// simulation — it never certifies feasibility and never enters
// fronts/Best (hypermapper.FullObservations excludes it, exactly as for
// an uncached run). Quarantine-synthesised Failed metrics (a panicking
// cell) never reach the store: the panic unwinds past the publish.
package evalstore

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"strings"
	"time"

	"slamgo/internal/hypermapper"
	"slamgo/internal/sharedfs"
)

// Stats counts store activity since Open. Simulations counts evaluator
// invocations issued by the store (cache misses); DiskHits counts
// verified record loads; Degradations counts inline fallbacks — the
// acceptance number for "each distinct configuration simulated exactly
// once per shared store" is the sum of Simulations over every
// cooperating process.
type Stats struct {
	Simulations  int `json:"simulations"`
	DiskHits     int `json:"disk_hits"`
	Published    int `json:"published"`
	Degradations int `json:"degradations"`
	Evictions    int `json:"evictions"`
}

// Options configures a store.
type Options struct {
	// Dir is the shared store directory; empty means disabled (every
	// Evaluate simulates inline, nothing touches disk — callers that
	// want "off" should not construct a store at all, but an empty Dir
	// is safe).
	Dir string
	// Worker identifies this process in lease files. Defaults to
	// "pid<pid>" — lease contents never influence results, so a
	// non-deterministic default is safe.
	Worker string
	// LeaseTTL bounds how long a dead simulator can block a key before
	// takeover. Default 10s.
	LeaseTTL time.Duration
	// MaxBytes bounds the on-disk size; 0 means unbounded. Enforced
	// after saves by deterministic eviction (lexicographic key order,
	// newest write exempt), so cooperating processes evict identically.
	MaxBytes int64
	// Log (may be nil) receives degradation and hygiene messages.
	Log func(format string, args ...any)
	// Sleep (nil = time.Sleep) paces retries and lease polls; tests
	// inject a no-op to stay fast.
	Sleep func(time.Duration)
	// Now (nil = time.Now) is the lease clock; tests inject it to
	// simulate dead workers.
	Now func() time.Time
}

// maxLeasePolls bounds how long an Evaluate call waits on another
// worker's live lease before degrading to inline simulation: a holder
// that heartbeats forever without ever publishing (wedged, not dead —
// TTL takeover never triggers) must not wedge this process too. At the
// poll ladder's 200ms cap this is ~2 minutes of real waiting.
const maxLeasePolls = 600

// Store is a content-addressed simulation-result store. Safe for
// concurrent use by any number of goroutines; any number of processes
// may share its directory. Records are sharded across 256
// two-hex-character subdirectories by key prefix so a long-lived store
// holding every configuration a team ever simulated stays
// filesystem-friendly; lease files live flat in the root where the
// debris sweeper finds them.
type Store struct {
	fs *sharedfs.Store[hypermapper.Metrics]
}

// codec is the EVR1 record format as a sharedfs codec.
type codec struct{}

func (codec) Encode(key string, m hypermapper.Metrics) ([]byte, error) { return Encode(key, m), nil }

func (codec) Decode(data []byte) (string, hypermapper.Metrics, error) {
	key, m, err := Decode(data)
	if err == nil && m.LowFidelity {
		// Defence in depth: the store never publishes such a record, so
		// one on disk is a defect and must never answer a lookup.
		err = errors.New("record flagged LowFidelity (defect)")
	}
	return key, m, err
}

// Open opens (creating if needed) a store over opts.Dir, sweeping the
// debris dead simulators leave behind (stale temp files, orphaned
// leases). Open never fails: an unusable directory is a degraded store,
// not a broken campaign — every subsequent Evaluate simulates inline.
func Open(opts Options) *Store {
	if opts.Worker == "" {
		opts.Worker = fmt.Sprintf("pid%d", os.Getpid())
	}
	fs, err := sharedfs.Open[hypermapper.Metrics](sharedfs.Config{
		Dir: opts.Dir, Label: "evalstore", Ext: ".evr", Shard: shardOf, MaxBytes: opts.MaxBytes,
		Worker: opts.Worker, LeaseTTL: opts.LeaseTTL, Log: opts.Log, Sleep: opts.Sleep, Now: opts.Now,
	}, codec{})
	if err != nil && opts.Log != nil {
		opts.Log("evalstore: %v (store disabled, simulating inline)", err)
	}
	return &Store{fs: fs}
}

// Path returns where key's record lives (test and tooling surface —
// the fault suite and the smoke test damage files in place).
func (s *Store) Path(key string) string { return s.fs.Path(key) }

// shardOf maps a key onto its two-hex-character shard directory.
func shardOf(key string) string {
	h := strings.TrimPrefix(key, "ev-")
	if len(h) < 2 {
		return "xx"
	}
	return h[:2]
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	n := s.fs.Counters()
	return Stats{Simulations: n.Computes, DiskHits: n.DiskHits, Published: n.Published,
		Degradations: n.Degradations, Evictions: n.Evictions}
}

// InjectFaults arms the fault plan (crash-safety tests only).
func (s *Store) InjectFaults(plan *sharedfs.FaultPlan) { s.fs.InjectFaults(plan) }

// Scope binds the store to one evaluation context: the sequence content
// key (core.Scale.CacheKey — hashes every render input), the device
// identity, and the fidelity stride. Every record key is a sha256 over
// this context plus the point's canonical encoding, so results can
// never leak between scenarios, devices or fidelities — distinct
// contexts are distinct key spaces in one shared directory. A Scope is
// a hypermapper.ResultTier: plug it into NewTieredMemoEvaluator.
func (s *Store) Scope(seqKey, device string, stride int) *Scope {
	if stride < 1 {
		stride = 1
	}
	prefix := fmt.Sprintf("evalstore-v%d|seq=%s|dev=%s|stride=%d|",
		formatVersion, seqKey, device, stride)
	return &Scope{store: s, prefix: []byte(prefix)}
}

// Scope is one evaluation context's view of a Store. Safe for
// concurrent use.
type Scope struct {
	store  *Store
	prefix []byte
}

// Key returns the record key for pt in this scope (test and tooling
// surface). Keys are "ev-" plus 40 hex characters of the sha256 over
// the scope prefix and the point's canonical encoding; the encoding is
// prefix-free per scope (fixed 8 bytes per coordinate after a
// delimiter-terminated header), so distinct points, scenarios, devices
// and strides can never share a key.
func (sc *Scope) Key(pt hypermapper.Point) string {
	h := sha256.New()
	h.Write(sc.prefix)
	h.Write(hypermapper.AppendKey(make([]byte, 0, 8*len(pt)), pt))
	return "ev-" + hex.EncodeToString(h.Sum(nil))[:40]
}

// Evaluate returns pt's metrics, simulating via simulate only when no
// cooperating process has published them. The degradation ladder, in
// order: verified disk hit → lease-coordinated simulate-and-publish →
// inline simulation (store failed; logged and counted, never fatal).
// The in-memory layer lives in the MemoEvaluator wrapping this scope,
// so repeated lookups of one point within a process never reach here.
func (sc *Scope) Evaluate(pt hypermapper.Point, simulate hypermapper.Evaluator) hypermapper.Metrics {
	eval := func() (hypermapper.Metrics, error) { return simulate(pt), nil }
	var m hypermapper.Metrics
	if hypermapper.KeyablePoint(pt) {
		m, _, _ = sc.store.fs.Fetch(sc.Key(pt), maxLeasePolls, eval, publishable)
	} else {
		// No canonical key exists for a NaN coordinate; simulate
		// uncached. Spaces are finite ordinal/integer grids so this is
		// unreachable in practice — guarded so a future space change
		// degrades instead of corrupting the store.
		m, _, _ = sc.store.fs.Inline("point", errors.New("NaN coordinate has no canonical key"), eval)
	}
	return m
}

// publishable keeps LowFidelity metrics out of the store: cached metrics
// answer future probes as full-fidelity truths for their stride, and
// the LowFidelity marker exists precisely to say "this is not that". In
// the current pipeline the flag is applied above the memo layer
// (MultiFidelity marks unpromoted batch entries after EvalAll), so
// evaluator output reaching here never carries it — this is the same
// defence-in-depth as Preload's filter.
func publishable(m hypermapper.Metrics) bool { return !m.LowFidelity }
