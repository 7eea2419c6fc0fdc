package campaign

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"slamgo/internal/evalstore"
	"slamgo/internal/sharedfs"
	"slamgo/internal/slambench"
)

// noEvalDebris fails the test if the evaluation store holds leftover
// temp or lease files after a completed campaign (root and shards).
func noEvalDebris(t *testing.T, dir string) {
	t.Helper()
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if sharedfs.IsTempFile(d.Name()) {
			t.Fatalf("store leaked temp file %s", path)
		}
		if filepath.Ext(d.Name()) == ".lease" {
			t.Fatalf("store leaked lease file %s", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// storeRecords lists the record keys currently on disk, sorted by the
// deterministic shard walk.
func storeRecords(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "??", "*.evr"))
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(paths))
	for _, p := range paths {
		keys = append(keys, strings.TrimSuffix(filepath.Base(p), ".evr"))
	}
	return keys
}

// TestEvalCacheWarmRerunZeroSimulations is the headline acceptance
// check: a campaign re-run against the store a previous run warmed
// performs zero pipeline simulations — every evaluation is answered
// from disk — and still renders the byte-identical report.
func TestEvalCacheWarmRerunZeroSimulations(t *testing.T) {
	dir := t.TempDir()
	var cold simCounter
	opts := resumeOptions(1, "")
	opts.EvalCacheDir = dir
	opts.observeSimulation = cold.hook
	ref, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	refBytes := renderReport(t, ref)
	if cold.total() == 0 {
		t.Fatal("cold run simulated nothing")
	}
	if got := ref.EvalStats.Simulations; got != cold.total() {
		t.Fatalf("store counted %d simulations, hook counted %d", got, cold.total())
	}
	if ref.EvalStats.Published != ref.EvalStats.Simulations {
		t.Fatalf("cold run published %d of %d simulations (all results are persistable)",
			ref.EvalStats.Published, ref.EvalStats.Simulations)
	}
	if ref.EvalStats.Degradations != 0 {
		t.Fatalf("healthy store degraded: %+v", ref.EvalStats)
	}

	var warm simCounter
	opts = resumeOptions(1, "")
	opts.EvalCacheDir = dir
	opts.observeSimulation = warm.hook
	res, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if warm.total() != 0 {
		t.Fatalf("warm re-run performed %d simulations, want 0", warm.total())
	}
	if res.EvalStats.Simulations != 0 || res.EvalStats.DiskHits == 0 {
		t.Fatalf("warm re-run stats: %+v", res.EvalStats)
	}
	if !bytes.Equal(renderReport(t, res), refBytes) {
		t.Fatal("warm re-run report diverges from cold run")
	}
	noEvalDebris(t, dir)
}

// TestEvalCacheByteIdenticalAcrossWorkerCounts checks the determinism
// invariant under the store: for workers 1, 4 and 8 sharing one store,
// every cached run renders the byte-identical report of the uncached
// reference run (under -race via make race), the first run fills the
// store and the later runs simulate nothing.
func TestEvalCacheByteIdenticalAcrossWorkerCounts(t *testing.T) {
	refOpts := resumeOptions(1, "")
	refOpts.FidelityStride = 2 // exercise the intra-cell ladder's store-backed rungs
	refOpts.PromoteFraction = 0.5
	ref, err := Run(refOpts)
	if err != nil {
		t.Fatal(err)
	}
	refBytes := renderReport(t, ref)
	if ref.EvalStats != (evalstore.Stats{}) {
		t.Fatalf("uncached run touched an evaluation store: %+v", ref.EvalStats)
	}
	if ref.MemoHits == 0 && ref.MemoMisses == 0 {
		t.Fatal("memo counters not aggregated")
	}

	dir := t.TempDir()
	first := 0
	for i, workers := range []int{1, 4, 8} {
		opts := resumeOptions(workers, "")
		opts.FidelityStride = 2
		opts.PromoteFraction = 0.5
		opts.EvalCacheDir = dir
		res, err := Run(opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !bytes.Equal(renderReport(t, res), refBytes) {
			t.Fatalf("workers=%d: cached report diverges from uncached run", workers)
		}
		st := res.EvalStats
		if st.Degradations != 0 {
			t.Fatalf("workers=%d: healthy store degraded: %+v", workers, st)
		}
		if i == 0 {
			first = st.Simulations
			if first == 0 {
				t.Fatal("first cached run simulated nothing")
			}
		} else if st.Simulations != 0 {
			t.Fatalf("run %d simulated %d against a warm store, want 0", i, st.Simulations)
		}
	}
	if got := len(storeRecords(t, dir)); got != first {
		t.Fatalf("store holds %d records after %d distinct simulations", got, first)
	}
	noEvalDebris(t, dir)
}

// TestEvalCacheCooperatingWorkersSimulateOnceEach runs three
// cooperating worker processes (in-process) sharing one checkpoint
// directory AND one evaluation store: every worker renders the
// reference report and the workers' summed simulation counters prove
// each distinct (configuration, sequence, device, fidelity) was
// simulated exactly once per shared store, not once per process.
func TestEvalCacheCooperatingWorkersSimulateOnceEach(t *testing.T) {
	// Ground truth: a solo cold run against its own store. Its
	// simulation count is the number of distinct keys the campaign
	// evaluates — the exactly-once bound for any cooperating fleet.
	soloDir := t.TempDir()
	soloOpts := resumeOptions(1, "")
	soloOpts.EvalCacheDir = soloDir
	solo, err := Run(soloOpts)
	if err != nil {
		t.Fatal(err)
	}
	refBytes := renderReport(t, solo)
	distinct := solo.EvalStats.Simulations

	const workers = 3
	ckpt, dir := t.TempDir(), t.TempDir()
	results := make([]*Result, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			opts := resumeOptions(2, ckpt)
			opts.WorkerID = fmt.Sprintf("w%d", w)
			opts.EvalCacheDir = dir
			results[w], errs[w] = Run(opts)
		}(w)
	}
	wg.Wait()

	sims, degradations := 0, 0
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		if !bytes.Equal(renderReport(t, results[w]), refBytes) {
			t.Fatalf("worker %d report diverges from solo run", w)
		}
		sims += results[w].EvalStats.Simulations
		degradations += results[w].EvalStats.Degradations
	}
	if sims != distinct {
		t.Fatalf("workers simulated %d configurations between them, want %d (once per shared store)",
			sims, distinct)
	}
	if degradations != 0 {
		t.Fatalf("healthy shared store degraded %d times", degradations)
	}
	noEvalDebris(t, dir)
}

// TestEvalCacheFaultMatrix drives the campaign over the store's
// injected fault scenarios: every fault completes the campaign with an
// unchanged report — degradation observable in provenance counters,
// never fatal, no leaked files.
func TestEvalCacheFaultMatrix(t *testing.T) {
	ref, err := Run(resumeOptions(1, ""))
	if err != nil {
		t.Fatal(err)
	}
	refBytes := renderReport(t, ref)

	warmStore := func(t *testing.T) (string, int) {
		t.Helper()
		dir := t.TempDir()
		opts := resumeOptions(1, "")
		opts.EvalCacheDir = dir
		res, err := Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		return dir, res.EvalStats.Simulations
	}

	t.Run("corrupt records on read are silently re-simulated and repaired", func(t *testing.T) {
		dir, _ := warmStore(t)
		opts := resumeOptions(1, "")
		opts.EvalCacheDir = dir
		// Single worker: a miss costs two load ops (the lookup, then the
		// re-check under the lease), so ops 0 and 2 are the first two
		// evaluations' lookups; damage both records in place.
		opts.evalFaults = &sharedfs.FaultPlan{Load: map[int]sharedfs.FaultKind{
			0: sharedfs.FaultCorruptRead, 2: sharedfs.FaultCorruptRead,
		}}
		res, err := Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(renderReport(t, res), refBytes) {
			t.Fatal("corrupt-read run diverges from reference")
		}
		st := res.EvalStats
		if st.Simulations != 2 || st.Degradations != 0 {
			t.Fatalf("corruption is a miss repaired by re-simulation, not a degradation: %+v", st)
		}
		// The re-simulations repaired the store: a clean run hits everything.
		clean := resumeOptions(1, "")
		clean.EvalCacheDir = dir
		res, err = Run(clean)
		if err != nil {
			t.Fatal(err)
		}
		if res.EvalStats.Simulations != 0 {
			t.Fatalf("store not repaired after corrupt reads: %+v", res.EvalStats)
		}
		noEvalDebris(t, dir)
	})

	t.Run("ENOSPC on every save degrades to inline-served metrics", func(t *testing.T) {
		dir := t.TempDir()
		plan := &sharedfs.FaultPlan{Save: map[int]sharedfs.FaultKind{}}
		for i := 0; i < 4096; i++ { // every retry attempt of every save
			plan.Save[i] = sharedfs.FaultWriteError
		}
		opts := resumeOptions(1, "")
		opts.EvalCacheDir = dir
		opts.evalFaults = plan
		opts.sleepFn = func(time.Duration) {} // don't serve out the retry ladder for real
		res, err := Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(renderReport(t, res), refBytes) {
			t.Fatal("full-disk run diverges from reference")
		}
		st := res.EvalStats
		if st.Published != 0 {
			t.Fatalf("full disk published %d records", st.Published)
		}
		if st.Degradations != st.Simulations || st.Simulations == 0 {
			t.Fatalf("every failed publish should count one degradation: %+v", st)
		}
		if got := storeRecords(t, dir); len(got) != 0 {
			t.Fatalf("records survived a full disk: %v", got)
		}
	})

	t.Run("torn write is repaired by the next run", func(t *testing.T) {
		dir := t.TempDir()
		// Defeat the whole retry ladder of the first save (5 attempts):
		// the published-then-truncated bytes stay torn on disk.
		plan := &sharedfs.FaultPlan{Save: map[int]sharedfs.FaultKind{0: sharedfs.FaultShortWrite}}
		for i := 1; i < sharedfs.DefaultRetryPolicy().Attempts; i++ {
			plan.Save[i] = sharedfs.FaultWriteError
		}
		opts := resumeOptions(1, "")
		opts.EvalCacheDir = dir
		opts.evalFaults = plan
		opts.sleepFn = func(time.Duration) {}
		res, err := Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(renderReport(t, res), refBytes) {
			t.Fatal("torn-write run diverges from reference")
		}
		if res.EvalStats.Degradations != 1 {
			t.Fatalf("the torn save should degrade exactly once: %+v", res.EvalStats)
		}
		// The warm run sees the torn record as a miss, re-simulates just
		// that configuration, and repairs the store in place.
		warm := resumeOptions(1, "")
		warm.EvalCacheDir = dir
		res, err = Run(warm)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(renderReport(t, res), refBytes) {
			t.Fatal("post-torn warm run diverges from reference")
		}
		if st := res.EvalStats; st.Simulations != 1 || st.Degradations != 0 {
			t.Fatalf("torn record should cost exactly one re-simulation: %+v", st)
		}
		noEvalDebris(t, dir)
	})

	t.Run("EIO on every read degrades to inline simulation", func(t *testing.T) {
		dir, distinct := warmStore(t)
		plan := &sharedfs.FaultPlan{Load: map[int]sharedfs.FaultKind{}}
		for i := 0; i < 4096; i++ {
			plan.Load[i] = sharedfs.FaultReadError
		}
		opts := resumeOptions(1, "")
		opts.EvalCacheDir = dir
		opts.evalFaults = plan
		opts.sleepFn = func(time.Duration) {}
		res, err := Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(renderReport(t, res), refBytes) {
			t.Fatal("unreadable-store run diverges from reference")
		}
		st := res.EvalStats
		if st.Simulations != distinct || st.DiskHits != 0 {
			t.Fatalf("every read failing should re-simulate everything inline: %+v (want %d simulations)",
				st, distinct)
		}
		if st.Degradations == 0 {
			t.Fatal("unreadable store never counted a degradation")
		}
	})

	t.Run("dead simulator's lease is taken over", func(t *testing.T) {
		// Learn one key the campaign will evaluate from a throwaway warm
		// store (keys are deterministic), then squat on it in a fresh
		// store with a lease whose heartbeat died an hour ago.
		warmDir, distinct := warmStore(t)
		keys := storeRecords(t, warmDir)
		if len(keys) == 0 {
			t.Fatal("warm store holds no records")
		}
		dir := t.TempDir()
		past := func() time.Time { return time.Now().Add(-time.Hour) }
		if _, ok, err := sharedfs.NewLeaseManager(dir, "dead", time.Second, past).TryAcquire(keys[0]); err != nil || !ok {
			t.Fatalf("staging dead simulator's lease: ok=%v err=%v", ok, err)
		}
		opts := resumeOptions(1, "")
		opts.EvalCacheDir = dir
		opts.LeaseTTL = 500 * time.Millisecond
		res, err := Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(renderReport(t, res), refBytes) {
			t.Fatal("takeover run diverges from reference")
		}
		if st := res.EvalStats; st.Simulations != distinct || st.Degradations != 0 {
			t.Fatalf("takeover should simulate normally: %+v (want %d simulations)", st, distinct)
		}
		if _, err := os.Stat(filepath.Join(dir, keys[0]+".lease")); !os.IsNotExist(err) {
			t.Fatalf("reclaimed lease not released (stat err %v)", err)
		}
		noEvalDebris(t, dir)
	})

	t.Run("unusable store directory never fails the campaign", func(t *testing.T) {
		parent := t.TempDir()
		blocked := filepath.Join(parent, "occupied")
		if err := os.WriteFile(blocked, []byte("not a directory"), 0o644); err != nil {
			t.Fatal(err)
		}
		opts := resumeOptions(1, "")
		opts.EvalCacheDir = blocked
		res, err := Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(renderReport(t, res), refBytes) {
			t.Fatal("broken-store run diverges from reference")
		}
		st := res.EvalStats
		if st.Degradations != st.Simulations || st.Simulations == 0 {
			t.Fatalf("broken store should degrade every evaluation: %+v", st)
		}
	})
}

// TestCacheRootLayout pins the store-root layout: -campaign-store
// roots and dseserve data directories written by earlier builds keep
// their caches in exactly these subdirectories.
func TestCacheRootLayout(t *testing.T) {
	root := filepath.Join("data", "root")
	var opts Options
	opts.UseCacheRoot(root)
	if opts.SeqCacheDir != filepath.Join(root, "seqcache") || opts.EvalCacheDir != filepath.Join(root, "evalcache") {
		t.Fatalf("cache layout under %s: seq %s, eval %s", root, opts.SeqCacheDir, opts.EvalCacheDir)
	}
	if opts.CheckpointDir != "" {
		t.Fatalf("UseCacheRoot set the checkpoint directory %q", opts.CheckpointDir)
	}
}

// TestValidateEvalCacheOptions covers the engine-level rejections.
func TestValidateEvalCacheOptions(t *testing.T) {
	opts := resumeOptions(1, "")
	opts.CacheMaxBytes = -1
	if err := opts.Validate(); err == nil {
		t.Fatal("negative CacheMaxBytes accepted")
	}
	opts = resumeOptions(1, "")
	opts.CacheMaxBytes = 1 << 20
	if err := opts.Validate(); err == nil {
		t.Fatal("CacheMaxBytes without a cache directory accepted")
	}
	opts.EvalCacheDir = t.TempDir()
	if err := opts.Validate(); err != nil {
		t.Fatalf("valid eval-cache options rejected: %v", err)
	}
}

// TestEvalCacheBounded checks the size bound end to end: a campaign
// over a store budget far below its record volume evicts
// deterministically and still renders the reference report.
func TestEvalCacheBounded(t *testing.T) {
	ref, err := Run(resumeOptions(1, ""))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	opts := resumeOptions(1, "")
	opts.EvalCacheDir = dir
	opts.CacheMaxBytes = 512 // a handful of ~150-byte records
	res, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(renderReport(t, res), renderReport(t, ref)) {
		t.Fatal("bounded-store run diverges from reference")
	}
	if res.EvalStats.Evictions == 0 {
		t.Fatal("tiny budget never evicted")
	}
	var total int64
	for _, key := range storeRecords(t, dir) {
		if info, err := os.Stat(filepath.Join(dir, key[len("ev-"):len("ev-")+2], key+".evr")); err == nil {
			total += info.Size()
		}
	}
	if total > opts.CacheMaxBytes {
		t.Fatalf("store holds %d bytes, budget %d", total, opts.CacheMaxBytes)
	}
	noEvalDebris(t, dir)
}

// TestCacheStatsReportSurface pins the opt-in JSON summary and the
// always-on provenance lines: the default JSON surface has no cache
// counters (cold and warm runs must stay byte-comparable), CacheStats
// adds the "caches" block, and WriteCampaignProvenance renders the
// evalstore and memo counters for stderr.
func TestCacheStatsReportSurface(t *testing.T) {
	res := &Result{
		AccuracyLimit: 0.1,
		EvalStats:     evalstore.Stats{Simulations: 3, DiskHits: 7, Published: 3},
		MemoHits:      11,
		MemoMisses:    10,
	}
	var buf bytes.Buffer
	if err := slambench.WriteCampaignJSON(&buf, res.Report()); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "caches") {
		t.Fatal("default JSON report leaks cache counters")
	}
	res.CacheSummary = true
	buf.Reset()
	if err := slambench.WriteCampaignJSON(&buf, res.Report()); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"caches"`, `"eval_disk_hits": 7`, `"memo_hits": 11`, `"seq_renders": 0`} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("opt-in JSON summary missing %s:\n%s", want, buf.String())
		}
	}
	buf.Reset()
	if err := slambench.WriteCampaignProvenance(&buf, res.Report()); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"evalstore: simulations=3 disk-hits=7 published=3 degradations=0 evictions=0",
		"memo: hits=11 misses=10",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("provenance missing %q:\n%s", want, buf.String())
		}
	}
}
