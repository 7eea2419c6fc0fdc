package evalstore

import (
	"bytes"
	"crypto/sha256"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"slamgo/internal/hypermapper"
	"slamgo/internal/sharedfs"
)

// open builds a store over dir with fast test plumbing.
func open(t *testing.T, dir string, mut func(*Options)) *Store {
	t.Helper()
	opts := Options{
		Dir:      dir,
		Worker:   "tester",
		LeaseTTL: time.Minute,
		Sleep:    func(time.Duration) {},
		Log:      t.Logf,
	}
	if mut != nil {
		mut(&opts)
	}
	return Open(opts)
}

// simulator returns an Evaluator serving fixed metrics per point and
// counting invocations.
func simulator(calls *int) hypermapper.Evaluator {
	return func(pt hypermapper.Point) hypermapper.Metrics {
		*calls++
		m := hypermapper.Metrics{Runtime: 1, MaxATE: 0.01, Power: 2, Energy: 3}
		for i, v := range pt {
			m.Runtime += v * float64(i+1)
			m.Energy += v
		}
		return m
	}
}

// noDebris fails the test if the store directory (or a shard) leaked
// temp files.
func noDebris(t *testing.T, dir string) {
	t.Helper()
	walk := func(d string) {
		ents, err := os.ReadDir(d)
		if err != nil {
			return
		}
		for _, e := range ents {
			if sharedfs.IsTempFile(e.Name()) {
				t.Fatalf("leaked temp file %s in %s", e.Name(), d)
			}
			if e.IsDir() {
				sub, _ := os.ReadDir(filepath.Join(d, e.Name()))
				for _, se := range sub {
					if sharedfs.IsTempFile(se.Name()) {
						t.Fatalf("leaked temp file %s in shard %s", se.Name(), e.Name())
					}
				}
			}
		}
	}
	walk(dir)
}

func TestEncodeDecodeRoundtripBitExact(t *testing.T) {
	cases := []hypermapper.Metrics{
		{Runtime: 0.0123, MaxATE: 0.456, Power: 2.5, Energy: 7.875},
		{Failed: true},
		{Runtime: 1e-300, MaxATE: 1e300, Power: -0.0, Energy: 0},
	}
	for _, m := range cases {
		data := Encode("ev-roundtrip", m)
		key, got, err := Decode(data)
		if err != nil {
			t.Fatalf("Decode(%+v): %v", m, err)
		}
		if key != "ev-roundtrip" || got != m {
			t.Fatalf("roundtrip %+v -> %q %+v", m, key, got)
		}
		// Encoding is a pure function: two encodes are byte-identical
		// (this is what makes concurrent store writers benign).
		if !bytes.Equal(data, Encode("ev-roundtrip", m)) {
			t.Fatalf("Encode is not deterministic")
		}
	}
}

func TestDecodeRejectsEveryDefect(t *testing.T) {
	good := Encode("k", hypermapper.Metrics{Runtime: 1})
	damage := map[string][]byte{
		"empty":     {},
		"truncated": good[:len(good)/2],
		"bit flip":  append(append([]byte{}, good[:10]...), append([]byte{good[10] ^ 0x01}, good[11:]...)...),
		"trailing":  append(append([]byte{}, good...), 0),
	}
	for name, data := range damage {
		if _, _, err := Decode(data); err == nil {
			t.Errorf("%s: Decode accepted damaged record", name)
		}
	}
	// A version bump orphans old records (checksum re-stamped so only
	// the version check can reject it).
	restamp := func(mut func(body []byte)) []byte {
		body := append([]byte{}, good[:len(good)-checksumSize]...)
		mut(body)
		sum := sha256.Sum256(body)
		return append(body, sum[:]...)
	}
	if _, _, err := Decode(restamp(func(b []byte) { b[len(formatMagic)]++ })); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("version mismatch not rejected: %v", err)
	}
	// Unknown flag bits are future semantics this version cannot trust.
	if _, _, err := Decode(restamp(func(b []byte) { b[len(b)-1] |= 0x80 })); err == nil || !strings.Contains(err.Error(), "flags") {
		t.Errorf("unknown flags not rejected: %v", err)
	}
}

func TestSimulateOncePerStoreAcrossInstances(t *testing.T) {
	dir := t.TempDir()
	pt := hypermapper.Point{1, 2, 3}
	calls := 0

	s1 := open(t, dir, nil)
	sc1 := s1.Scope("seq-x", "odroid", 1)
	m1 := sc1.Evaluate(pt, simulator(&calls))

	// A second store instance (a new process) loads the record.
	s2 := open(t, dir, nil)
	sc2 := s2.Scope("seq-x", "odroid", 1)
	m2 := sc2.Evaluate(pt, simulator(&calls))
	if calls != 1 {
		t.Fatalf("simulator called %d times, want 1 (simulate once per shared store)", calls)
	}
	if m1 != m2 {
		t.Fatalf("disk hit %+v differs from fresh simulation %+v", m2, m1)
	}
	st1, st2 := s1.Stats(), s2.Stats()
	if st1.Simulations != 1 || st1.Published != 1 || st2.DiskHits != 1 || st1.Degradations+st2.Degradations != 0 {
		t.Fatalf("stats = %+v / %+v", st1, st2)
	}
	noDebris(t, dir)
}

func TestScopeSeparationNoCrossTalk(t *testing.T) {
	dir := t.TempDir()
	pt := hypermapper.Point{1, 2, 3}
	s := open(t, dir, nil)
	base := s.Scope("seq-x", "odroid", 1)
	scopes := []*Scope{
		s.Scope("seq-y", "odroid", 1), // different sequence
		s.Scope("seq-x", "pixel", 1),  // different device
		s.Scope("seq-x", "odroid", 4), // different fidelity stride
	}
	seen := map[string]bool{base.Key(pt): true}
	for _, sc := range scopes {
		k := sc.Key(pt)
		if seen[k] {
			t.Fatalf("scope key collision: %s", k)
		}
		seen[k] = true
	}
	// Each scope simulates independently: 4 distinct keys, 4 runs.
	calls := 0
	base.Evaluate(pt, simulator(&calls))
	for _, sc := range scopes {
		sc.Evaluate(pt, simulator(&calls))
	}
	if calls != 4 {
		t.Fatalf("calls = %d, want 4 (no cross-scope reuse)", calls)
	}
}

func TestFailedMetricsRoundTripAsFailed(t *testing.T) {
	// A deterministic evaluator failure (lost tracking) is an ordinary
	// result: cached, and answered as Failed — never laundered into a
	// feasible metric, never re-simulated.
	dir := t.TempDir()
	pt := hypermapper.Point{9}
	calls := 0
	fail := func(hypermapper.Point) hypermapper.Metrics {
		calls++
		return hypermapper.Metrics{Failed: true}
	}
	open(t, dir, nil).Scope("seq-x", "d", 1).Evaluate(pt, fail)
	m := open(t, dir, nil).Scope("seq-x", "d", 1).Evaluate(pt, fail)
	if calls != 1 {
		t.Fatalf("failed config re-simulated (calls=%d)", calls)
	}
	if !m.Failed {
		t.Fatalf("cached failure lost its Failed flag: %+v", m)
	}
	// And it never certifies feasibility: the feasible-observation
	// filter excludes it exactly as for an uncached run.
	obs := hypermapper.FullObservations([]hypermapper.Observation{{X: pt, M: m}})
	for _, o := range obs {
		if o.M.Failed {
			t.Fatalf("Failed observation passed the full-observation filter")
		}
	}
}

func TestLowFidelityNeverStoredAndNeverServed(t *testing.T) {
	dir := t.TempDir()
	pt := hypermapper.Point{5}
	calls := 0
	low := func(hypermapper.Point) hypermapper.Metrics {
		calls++
		return hypermapper.Metrics{Runtime: 1, LowFidelity: true}
	}
	s := open(t, dir, nil)
	sc := s.Scope("seq-x", "d", 1)
	sc.Evaluate(pt, low)
	if _, err := os.Stat(s.Path(sc.Key(pt))); !os.IsNotExist(err) {
		t.Fatalf("LowFidelity metrics were persisted")
	}
	// Defence in depth: a hand-planted LowFidelity record is a defect
	// the load rejects, so the lookup re-simulates and repairs.
	data := Encode(sc.Key(pt), hypermapper.Metrics{Runtime: 1, LowFidelity: true})
	os.MkdirAll(filepath.Dir(s.Path(sc.Key(pt))), 0o755)
	os.WriteFile(s.Path(sc.Key(pt)), data, 0o644)
	calls = 0
	m := open(t, dir, nil).Scope("seq-x", "d", 1).Evaluate(pt, simulator(&calls))
	if calls != 1 || m.LowFidelity {
		t.Fatalf("planted LowFidelity record served (calls=%d, m=%+v)", calls, m)
	}
}

func TestCorruptRecordSilentlyReSimulatedAndRepaired(t *testing.T) {
	dir := t.TempDir()
	pt := hypermapper.Point{1, 2}
	calls := 0
	s0 := open(t, dir, nil)
	s0.Scope("seq-x", "d", 1).Evaluate(pt, simulator(&calls))

	// Bit-rot the record in place.
	path := s0.Path(s0.Scope("seq-x", "d", 1).Key(pt))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	data[len(data)/2] ^= 0x5a
	os.WriteFile(path, data, 0o644)

	s := open(t, dir, nil)
	s.Scope("seq-x", "d", 1).Evaluate(pt, simulator(&calls))
	if calls != 2 {
		t.Fatalf("corrupt record not re-simulated (calls=%d)", calls)
	}
	if st := s.Stats(); st.Degradations != 0 {
		t.Fatalf("corruption counted as degradation: %+v (it is a plain miss)", st)
	}
	// The re-simulation repaired the record: a third instance disk-hits.
	s3 := open(t, dir, nil)
	s3.Scope("seq-x", "d", 1).Evaluate(pt, simulator(&calls))
	if st := s3.Stats(); st.DiskHits != 1 || calls != 2 {
		t.Fatalf("repair did not stick (stats=%+v calls=%d)", st, calls)
	}
	noDebris(t, dir)
}

func TestMisfiledRecordIsAMiss(t *testing.T) {
	dir := t.TempDir()
	calls := 0
	s := open(t, dir, nil)
	sc := s.Scope("seq-x", "d", 1)
	sc.Evaluate(hypermapper.Point{1}, simulator(&calls))
	src := s.Path(sc.Key(hypermapper.Point{1}))
	dst := s.Path(sc.Key(hypermapper.Point{2}))
	data, _ := os.ReadFile(src)
	os.MkdirAll(filepath.Dir(dst), 0o755)
	os.WriteFile(dst, data, 0o644)

	open(t, dir, nil).Scope("seq-x", "d", 1).Evaluate(hypermapper.Point{2}, simulator(&calls))
	if calls != 2 {
		t.Fatalf("misfiled record served as a hit (calls=%d)", calls)
	}
}

func TestSaveENOSPCDegradesInline(t *testing.T) {
	dir := t.TempDir()
	calls := 0
	s := open(t, dir, nil)
	plan := &sharedfs.FaultPlan{Save: map[int]sharedfs.FaultKind{}}
	for i := 0; i < 8; i++ {
		plan.Save[i] = sharedfs.FaultWriteError
	}
	s.InjectFaults(plan)
	s.Scope("seq-x", "d", 1).Evaluate(hypermapper.Point{1}, simulator(&calls))
	st := s.Stats()
	if calls != 1 || st.Simulations != 1 || st.Degradations != 1 || st.Published != 0 {
		t.Fatalf("ENOSPC path wrong (calls=%d stats=%+v)", calls, st)
	}
	if plan.Injected() == 0 {
		t.Fatalf("fault plan never fired")
	}
	noDebris(t, dir)
}

func TestTransientShortWriteRetriesToSuccess(t *testing.T) {
	dir := t.TempDir()
	pt := hypermapper.Point{1}
	calls := 0
	s := open(t, dir, nil)
	s.InjectFaults(&sharedfs.FaultPlan{Save: map[int]sharedfs.FaultKind{0: sharedfs.FaultShortWrite}})
	s.Scope("seq-x", "d", 1).Evaluate(pt, simulator(&calls))
	// The retried save replaced the torn file whole.
	s2 := open(t, dir, nil)
	s2.Scope("seq-x", "d", 1).Evaluate(pt, simulator(&calls))
	if calls != 1 {
		t.Fatalf("torn write not healed by retry (calls=%d)", calls)
	}
	if st := s2.Stats(); st.DiskHits != 1 {
		t.Fatalf("stats = %+v", st)
	}
	noDebris(t, dir)
}

func TestReadErrorDegradesInline(t *testing.T) {
	dir := t.TempDir()
	pt := hypermapper.Point{1}
	calls := 0
	open(t, dir, nil).Scope("seq-x", "d", 1).Evaluate(pt, simulator(&calls))

	s := open(t, dir, nil)
	plan := &sharedfs.FaultPlan{Load: map[int]sharedfs.FaultKind{}}
	for i := 0; i < 8; i++ {
		plan.Load[i] = sharedfs.FaultReadError
	}
	s.InjectFaults(plan)
	s.Scope("seq-x", "d", 1).Evaluate(pt, simulator(&calls))
	if calls != 2 {
		t.Fatalf("EIO path did not simulate inline (calls=%d)", calls)
	}
	if st := s.Stats(); st.Degradations != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDeadSimulatorLeaseTakeover(t *testing.T) {
	dir := t.TempDir()
	pt := hypermapper.Point{1}
	calls := 0

	// A simulator that died an hour ago still holds the key's lease.
	s := open(t, dir, func(o *Options) { o.LeaseTTL = 50 * time.Millisecond })
	key := s.Scope("seq-x", "d", 1).Key(pt)
	past := func() time.Time { return time.Now().Add(-time.Hour) }
	dead := sharedfs.NewLeaseManager(dir, "dead-simulator", time.Minute, past)
	if _, ok, err := dead.TryAcquire(key); !ok || err != nil {
		t.Fatalf("planting stale lease: %v", err)
	}

	s.Scope("seq-x", "d", 1).Evaluate(pt, simulator(&calls))
	if calls != 1 {
		t.Fatalf("takeover did not simulate (calls=%d)", calls)
	}
	if st := s.Stats(); st.Simulations != 1 || st.Published != 1 || st.Degradations != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// The takeover released the lease after publishing.
	if _, err := os.Stat(filepath.Join(dir, key+".lease")); !os.IsNotExist(err) {
		t.Fatalf("lease not released after takeover")
	}
	noDebris(t, dir)
}

func TestLiveHolderPublicationArrivesDuringPoll(t *testing.T) {
	dir := t.TempDir()
	pt := hypermapper.Point{1}
	calls := 0
	want := hypermapper.Metrics{Runtime: 42, MaxATE: 0.01, Power: 1, Energy: 2}

	var s *Store
	published := false
	s = open(t, dir, func(o *Options) {
		o.LeaseTTL = time.Hour
		o.Sleep = func(time.Duration) {
			if !published {
				published = true
				key := s.Scope("seq-x", "d", 1).Key(pt)
				os.MkdirAll(filepath.Dir(s.Path(key)), 0o755)
				os.WriteFile(s.Path(key), Encode(key, want), 0o644)
			}
		}
	})
	peer := sharedfs.NewLeaseManager(dir, "peer", time.Hour, nil)
	if _, ok, err := peer.TryAcquire(s.Scope("seq-x", "d", 1).Key(pt)); !ok || err != nil {
		t.Fatalf("planting live lease: %v", err)
	}
	m := s.Scope("seq-x", "d", 1).Evaluate(pt, simulator(&calls))
	if calls != 0 || m != want {
		t.Fatalf("peer's record not used (calls=%d, m=%+v)", calls, m)
	}
	if st := s.Stats(); st.DiskHits != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestWedgedHolderBoundedThenInline(t *testing.T) {
	dir := t.TempDir()
	pt := hypermapper.Point{1}
	calls := 0

	// A holder that heartbeats forever but never publishes: TTL never
	// expires, nothing to load. The poll budget must bound the wait.
	s := open(t, dir, func(o *Options) { o.LeaseTTL = time.Hour })
	peer := sharedfs.NewLeaseManager(dir, "wedged", time.Hour, nil)
	if _, ok, err := peer.TryAcquire(s.Scope("seq-x", "d", 1).Key(pt)); !ok || err != nil {
		t.Fatalf("planting wedged lease: %v", err)
	}
	s.Scope("seq-x", "d", 1).Evaluate(pt, simulator(&calls))
	if calls != 1 {
		t.Fatalf("wedged holder did not degrade to inline (calls=%d)", calls)
	}
	if st := s.Stats(); st.Degradations != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPanickingSimulationReleasesLease(t *testing.T) {
	dir := t.TempDir()
	pt := hypermapper.Point{1}
	s := open(t, dir, nil)
	key := s.Scope("seq-x", "d", 1).Key(pt)
	func() {
		defer func() { recover() }()
		s.Scope("seq-x", "d", 1).Evaluate(pt, func(hypermapper.Point) hypermapper.Metrics {
			panic("simulated cell panic")
		})
		t.Fatalf("panic swallowed")
	}()
	if _, err := os.Stat(filepath.Join(dir, key+".lease")); !os.IsNotExist(err) {
		t.Fatalf("panicking simulation leaked its lease (would wedge cooperating workers)")
	}
	// The key still works afterwards.
	calls := 0
	s.Scope("seq-x", "d", 1).Evaluate(pt, simulator(&calls))
	if calls != 1 {
		t.Fatalf("key wedged after panic (calls=%d)", calls)
	}
}

func TestEvictionIsDeterministicAndSparesNewestWrite(t *testing.T) {
	dir := t.TempDir()
	calls := 0
	pts := []hypermapper.Point{{1}, {2}, {3}}
	one := int64(len(Encode("ev-0123456789012345678901234567890123456789", hypermapper.Metrics{})))
	// Budget for about two records: publishing the third must evict
	// exactly one, the lexicographically smallest key with the fresh
	// write exempt.
	s := open(t, dir, func(o *Options) { o.MaxBytes = 2*one + one/2 })
	sc := s.Scope("seq-x", "d", 1)
	var keys []string
	for _, pt := range pts {
		keys = append(keys, sc.Key(pt))
		sc.Evaluate(pt, simulator(&calls))
	}
	if st := s.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1 (stats %+v)", st.Evictions, st)
	}
	sorted := append([]string{}, keys...)
	sort.Strings(sorted)
	victim := sorted[0]
	if victim == keys[2] {
		victim = sorted[1] // newest write exempt
	}
	if _, err := os.Stat(s.Path(victim)); !os.IsNotExist(err) {
		t.Fatalf("victim %s should have been evicted", victim)
	}
	survivors := 0
	for _, k := range keys {
		if _, err := os.Stat(s.Path(k)); err == nil {
			survivors++
		}
	}
	if survivors != 2 {
		t.Fatalf("survivors = %d, want 2", survivors)
	}
	// An evicted record is a plain miss for the next process.
	before := calls
	s2 := open(t, dir, func(o *Options) { o.MaxBytes = 1 << 20 })
	for _, pt := range pts {
		s2.Scope("seq-x", "d", 1).Evaluate(pt, simulator(&calls))
	}
	if calls != before+1 {
		t.Fatalf("re-run simulated %d, want exactly the evicted one", calls-before)
	}
}

func TestDebrisSweptOnOpen(t *testing.T) {
	dir := t.TempDir()
	os.MkdirAll(filepath.Join(dir, "ab"), 0o755)
	old := time.Now().Add(-time.Hour)
	tmpRoot := filepath.Join(dir, ".tmp-ev-zzz")
	tmpShard := filepath.Join(dir, "ab", ".tmp-ev-yyy")
	for _, p := range []string{tmpRoot, tmpShard} {
		os.WriteFile(p, []byte("half a record"), 0o644)
		os.Chtimes(p, old, old)
	}
	dead := sharedfs.NewLeaseManager(dir, "dead", time.Minute, func() time.Time { return old })
	dead.TryAcquire("ev-dead")

	open(t, dir, nil)
	for _, p := range []string{tmpRoot, tmpShard, filepath.Join(dir, "ev-dead.lease")} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("debris %s survived open", p)
		}
	}
}

func TestUnusableDirectoryDegradesEverything(t *testing.T) {
	parent := t.TempDir()
	blocked := filepath.Join(parent, "occupied")
	os.WriteFile(blocked, []byte("not a directory"), 0o644)
	calls := 0
	s := open(t, blocked, nil)
	s.Scope("seq-x", "d", 1).Evaluate(hypermapper.Point{1}, simulator(&calls))
	if calls != 1 {
		t.Fatalf("broken dir did not simulate inline (calls=%d)", calls)
	}
	if st := s.Stats(); st.Degradations != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestNaNPointSimulatesUncached(t *testing.T) {
	dir := t.TempDir()
	nan := hypermapper.Point{math.NaN(), 1}
	calls := 0
	s := open(t, dir, nil)
	s.Scope("seq-x", "d", 1).Evaluate(nan, simulator(&calls))
	s.Scope("seq-x", "d", 1).Evaluate(nan, simulator(&calls))
	if calls != 2 {
		t.Fatalf("NaN point was cached (calls=%d)", calls)
	}
	if st := s.Stats(); st.Published != 0 {
		t.Fatalf("NaN point was persisted: %+v", st)
	}
}

func TestTieredMemoIntegration(t *testing.T) {
	// The full stack as campaigns wire it: memo over scope over
	// simulator. Memory hits stay in the memo; disk hits and
	// simulations split in the store.
	dir := t.TempDir()
	pt := hypermapper.Point{1, 2}
	calls := 0
	s1 := open(t, dir, nil)
	memo1 := hypermapper.NewTieredMemoEvaluator(simulator(&calls), s1.Scope("seq-x", "d", 1))
	memo1.Evaluate(pt)
	memo1.Evaluate(pt)
	if h, m := memo1.Stats(); h != 1 || m != 1 {
		t.Fatalf("memo1 stats = %d/%d", h, m)
	}
	if st := s1.Stats(); st.Simulations != 1 || st.DiskHits != 0 {
		t.Fatalf("store1 stats = %+v", st)
	}

	s2 := open(t, dir, nil)
	memo2 := hypermapper.NewTieredMemoEvaluator(simulator(&calls), s2.Scope("seq-x", "d", 1))
	memo2.Evaluate(pt)
	if calls != 1 {
		t.Fatalf("cross-process tier did not reuse (calls=%d)", calls)
	}
	if st := s2.Stats(); st.DiskHits != 1 || st.Simulations != 0 {
		t.Fatalf("store2 stats = %+v", st)
	}
}

func TestRecordsAreSharded(t *testing.T) {
	dir := t.TempDir()
	calls := 0
	s := open(t, dir, nil)
	sc := s.Scope("seq-x", "d", 1)
	for i := 0; i < 16; i++ {
		sc.Evaluate(hypermapper.Point{float64(i)}, simulator(&calls))
	}
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if !e.IsDir() {
			t.Fatalf("record %s published flat in the root (want sharded)", e.Name())
		}
		if len(e.Name()) != 2 {
			t.Fatalf("unexpected root entry %s", e.Name())
		}
	}
	if len(ents) == 0 {
		t.Fatalf("no shards created")
	}
}
