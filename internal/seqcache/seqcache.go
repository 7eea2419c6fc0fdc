// Package seqcache is the content-addressed cache of rendered synthetic
// sequences. Rendering a sequence (ray-marching an SDF scene along a
// trajectory) dwarfs the cost of reading it back, and a campaign grid
// re-renders the same few sequences once per scenario cell, once per
// cooperating process, once per stage. The cache keys each rendered
// sequence by a canonical content hash of everything that determines
// its frames (see core.Scale.CacheKey), so all cells, stages and worker
// processes sharing a cache directory render each distinct sequence
// exactly once and load it everywhere else.
//
// The cache is a codec over the one content-addressed store of
// internal/sharedfs — the same store the campaign checkpoints and the
// evaluation store use. This package keeps only what is its own: the
// "SQC1" artifact format (format.go), flat "<key>.seq" files, the
// per-key in-process memory tier that single-flights concurrent
// callers, and its counters. Atomic writes, verified loads (any defect
// is a miss that re-rendering repairs), the retry ladder, lease
// single-flight across processes, deterministic eviction and the
// never-fatal degradation to inline rendering all come from
// sharedfs.Store.Fetch: the cache can lose every byte it owns and the
// campaign still completes with an identical report, just slower.
package seqcache

import (
	"fmt"
	"os"
	"sync"
	"time"

	"slamgo/internal/dataset"
	"slamgo/internal/sharedfs"
)

// Source reports where a Sequence call's frames came from; campaign
// provenance surfaces it per cell.
type Source string

const (
	// SourceMemory is an in-process reuse of a sequence this cache
	// already holds materialised.
	SourceMemory Source = "memory"
	// SourceDisk is a verified disk hit: another process (or a previous
	// run) rendered the sequence and this call loaded it.
	SourceDisk Source = "cache"
	// SourceRender means this call rendered the sequence and published
	// it to the cache.
	SourceRender Source = "render"
	// SourceInline means the cache degraded: the sequence was rendered
	// inline because some cache layer failed (unwritable directory,
	// unreadable artifact, failed save, wedged lease). Correct but
	// uncached.
	SourceInline Source = "inline"
)

// Stats counts cache activity since New. Renders counts renderer
// invocations that published (or tried to publish) to the cache;
// Degradations counts inline fallbacks — the acceptance number for
// "each distinct sequence rendered exactly once per shared store" is
// the sum of Renders over every cooperating process.
type Stats struct {
	Renders      int `json:"renders"`
	DiskHits     int `json:"disk_hits"`
	MemoryHits   int `json:"memory_hits"`
	Degradations int `json:"degradations"`
	Evictions    int `json:"evictions"`
}

// RenderFunc produces the sequence for a key when the cache cannot.
type RenderFunc func() (*dataset.MemorySequence, error)

// Options configures a cache.
type Options struct {
	// Dir is the shared cache directory; empty means memory-only (the
	// cache still single-flights and memoises in-process, nothing
	// touches disk).
	Dir string
	// Worker identifies this process in lease files. Defaults to
	// "pid<pid>" — lease contents never influence results, so a
	// non-deterministic default is safe.
	Worker string
	// LeaseTTL bounds how long a dead renderer can block a key before
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
	// simulate dead renderers.
	Now func() time.Time
}

// maxLeasePolls bounds how long a Sequence call waits on another
// worker's live lease before degrading to inline rendering: a holder
// that heartbeats forever without ever publishing (wedged, not dead —
// TTL takeover never triggers) must not wedge this process too. At the
// poll ladder's 200ms cap this is ~2 minutes of real waiting.
const maxLeasePolls = 600

// Cache is a content-addressed rendered-sequence cache. Safe for
// concurrent use by any number of goroutines; any number of processes
// may share its directory.
type Cache struct {
	store *sharedfs.Store[*dataset.MemorySequence]

	mu         sync.Mutex
	entries    map[string]*entry
	memoryHits int
}

// entry single-flights one key in-process: the per-entry lock serialises
// concurrent Sequence calls for the key (first caller renders or loads,
// the rest reuse), while distinct keys proceed in parallel.
type entry struct {
	mu  sync.Mutex
	seq *dataset.MemorySequence
}

// codec is the SQC1 artifact format as a sharedfs codec.
type codec struct{}

func (codec) Encode(key string, seq *dataset.MemorySequence) ([]byte, error) {
	return Encode(key, seq), nil
}

func (codec) Decode(data []byte) (string, *dataset.MemorySequence, error) { return Decode(data) }

// New opens (creating if needed) a cache over opts.Dir, sweeping the
// debris dead renderers leave behind (stale temp files, orphaned
// leases). New never fails: an unusable directory is a degraded cache,
// not a broken campaign — every subsequent miss renders inline.
func New(opts Options) *Cache {
	if opts.Worker == "" {
		opts.Worker = fmt.Sprintf("pid%d", os.Getpid())
	}
	store, err := sharedfs.Open[*dataset.MemorySequence](sharedfs.Config{
		Dir: opts.Dir, Label: "seqcache", Ext: ".seq", MaxBytes: opts.MaxBytes,
		Worker: opts.Worker, LeaseTTL: opts.LeaseTTL, Log: opts.Log, Sleep: opts.Sleep, Now: opts.Now,
	}, codec{})
	if err != nil && opts.Log != nil {
		opts.Log("seqcache: %v (cache disabled, rendering inline)", err)
	}
	return &Cache{store: store, entries: map[string]*entry{}}
}

// Stats returns a snapshot of the cache's counters.
func (c *Cache) Stats() Stats {
	n := c.store.Counters()
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Renders: n.Computes, DiskHits: n.DiskHits, MemoryHits: c.memoryHits,
		Degradations: n.Degradations, Evictions: n.Evictions}
}

// InjectFaults arms the fault plan (crash-safety tests only).
func (c *Cache) InjectFaults(plan *sharedfs.FaultPlan) { c.store.InjectFaults(plan) }

// entryFor returns (creating if needed) key's single-flight slot.
func (c *Cache) entryFor(key string) *entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[key]
	if e == nil {
		e = &entry{}
		c.entries[key] = e
	}
	return e
}

// sources names each store outcome as a Source.
var sources = map[sharedfs.Outcome]Source{
	sharedfs.Loaded: SourceDisk, sharedfs.Computed: SourceRender, sharedfs.Inline: SourceInline,
}

// Sequence returns the rendered sequence for key, rendering via render
// on a miss. The degradation ladder, in order: in-process memory hit →
// verified disk hit → lease-coordinated render-and-publish → inline
// render (cache failed; logged and counted, never fatal). The returned
// sequence is shared and must be treated as immutable — every consumer
// in this repo already treats sequences as read-only.
//
// The only non-nil error Sequence can return is the renderer's own:
// cache faults degrade, but if the sequence cannot be *rendered* the
// infrastructure is broken and the caller must know.
func (c *Cache) Sequence(key string, render RenderFunc) (*dataset.MemorySequence, Source, error) {
	e := c.entryFor(key)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.seq != nil {
		c.mu.Lock()
		c.memoryHits++
		c.mu.Unlock()
		return e.seq, SourceMemory, nil
	}
	seq, how, err := c.store.Fetch(key, maxLeasePolls, render, nil)
	if err != nil {
		return nil, sources[how], err
	}
	e.seq = seq
	return seq, sources[how], nil
}
