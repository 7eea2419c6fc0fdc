package sharedfs

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// The worker-lease protocol turns a shared directory into a
// coordination substrate: N cooperating processes (or machines over a
// shared filesystem) split a set of named work items, and any of them
// can die at any instant without losing the overall job.
//
// A worker claims an item by atomically creating `<name>.lease` (a
// whole record hard-linked into place, so the name appears complete or
// not at all) carrying its worker id and a heartbeat timestamp. While
// the item runs the holder renews the heartbeat; a lease whose
// heartbeat is older than the TTL is expired and may be taken over by
// any other worker. On completion the holder publishes the result
// (atomic rename) and releases the lease.
//
// Leases are a work-distribution optimisation, not a correctness
// mechanism. Correctness rests entirely on the published artifacts:
// names are content hashes of everything that determines their bytes,
// every writer of a name produces identical bytes, and writes are
// atomic — so if a takeover races a slow-but-alive holder, both compute
// the item, both write, the last complete rename wins, and the result
// is indistinguishable from either writer finishing alone. The lease
// protocol therefore tolerates benign races (two workers both believing
// they hold an expired lease) instead of paying for distributed
// consensus the problem does not need.
//
// Liveness: a worker that wants an item either holds the lease (and
// computes), sees the artifact appear (another worker finished), or
// watches the lease's heartbeat go stale (the holder died) and takes
// over. Heartbeat timestamps are wall-clock but exist only in .lease
// files, never in artifacts or reports — determinism is untouched.

// ErrLeaseLost reports that a renew found the lease held by another
// worker: an expired lease was taken over. The holder keeps computing —
// the write is still safe — but learns its effort may be duplicated.
var ErrLeaseLost = errors.New("sharedfs: lease lost to another worker")

// leaseRecord is the JSON body of a .lease file.
type leaseRecord struct {
	// Worker identifies the holder.
	Worker string `json:"worker"`
	// HeartbeatNS is the holder's last renewal, Unix nanoseconds.
	HeartbeatNS int64 `json:"heartbeat_ns"`
}

// LeaseManager claims, renews and releases item leases in a shared
// directory on behalf of one worker.
type LeaseManager struct {
	dir    string
	worker string
	ttl    time.Duration
	now    func() time.Time
}

// NewLeaseManager creates a manager for worker over the shared
// directory dir. A lease is expired once its heartbeat is older than
// ttl; now nil means time.Now (tests inject clocks to simulate dead
// workers).
func NewLeaseManager(dir, worker string, ttl time.Duration, now func() time.Time) *LeaseManager {
	if now == nil {
		now = time.Now
	}
	return &LeaseManager{dir: dir, worker: worker, ttl: ttl, now: now}
}

// Lease is a held claim on one item name.
type Lease struct {
	m    *LeaseManager
	name string
	path string
}

// Name returns the item name the lease claims (for log messages).
func (l *Lease) Name() string { return l.name }

func (m *LeaseManager) leasePath(name string) string {
	return filepath.Join(m.dir, name+".lease")
}

// record marshals a fresh heartbeat for this worker.
func (m *LeaseManager) record() []byte {
	data, _ := json.Marshal(leaseRecord{Worker: m.worker, HeartbeatNS: m.now().UnixNano()})
	return data
}

// read parses a lease file; ok is false when the file is absent.
// Unparsable lease bytes decode to a zero record, whose ancient
// heartbeat makes the lease immediately expired — a corrupt lease must
// never wedge an item.
func (m *LeaseManager) read(name string) (rec leaseRecord, ok bool) {
	data, err := os.ReadFile(m.leasePath(name))
	if err != nil {
		return leaseRecord{}, false
	}
	json.Unmarshal(data, &rec)
	return rec, true
}

// expired reports whether a heartbeat is older than the TTL.
func (m *LeaseManager) expired(rec leaseRecord) bool {
	return m.now().Sub(time.Unix(0, rec.HeartbeatNS)) > m.ttl
}

// TryAcquire attempts to claim name. It returns (lease, true) when this
// worker now holds the claim — either by creating the lease file or by
// taking over an expired one — and (nil, false) when a live worker
// holds it (or won the race to create it). Errors are real I/O faults.
//
// A new lease is published whole: the record is written to a temp file
// and hard-linked to the lease name, which fails when the name exists,
// so exactly one of any number of racing creators wins and no peer ever
// reads a half-written record (whose zero heartbeat would look expired
// and invite a takeover).
func (m *LeaseManager) TryAcquire(name string) (*Lease, bool, error) {
	rec, held := m.read(name)
	if held && !m.expired(rec) {
		return nil, false, nil
	}
	// Absent: create. Expired: take over by atomically replacing the
	// lease file. Two workers racing the replace both think they won —
	// a benign race (see the package comment): both compute, identical
	// bytes, last complete artifact rename wins.
	if err := m.publish(name, held); err != nil {
		if errors.Is(err, os.ErrExist) {
			return nil, false, nil
		}
		return nil, false, err
	}
	return &Lease{m: m, name: name, path: m.leasePath(name)}, true, nil
}

// publish writes a fresh record for this worker to a temp file and
// moves it onto name's lease path: by rename when replace is set, by
// hard link otherwise (which fails with os.ErrExist when the lease
// already exists).
func (m *LeaseManager) publish(name string, replace bool) error {
	f, err := os.CreateTemp(m.dir, ".tmp-lease-*")
	if err != nil {
		return fmt.Errorf("sharedfs: lease %s: %w", name, err)
	}
	tmp := f.Name()
	defer os.Remove(tmp)
	_, err = f.Write(m.record())
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	move := os.Link
	if replace {
		move = os.Rename
	}
	if err == nil {
		err = move(tmp, m.leasePath(name))
	}
	if err != nil {
		return fmt.Errorf("sharedfs: lease %s: %w", name, err)
	}
	return nil
}

// Renew refreshes the heartbeat. It returns ErrLeaseLost when the lease
// file now names another worker (an expired lease was taken over) or
// vanished; the holder should keep computing — artifact writes stay
// safe — but stop renewing.
func (l *Lease) Renew() error {
	rec, ok := l.m.read(l.name)
	if !ok || rec.Worker != l.m.worker {
		return ErrLeaseLost
	}
	return l.m.publish(l.name, true)
}

// Release drops the claim after the artifact is saved. Only a lease
// still held by this worker is removed; a lease lost to takeover is
// left to its new holder.
func (l *Lease) Release() error {
	rec, ok := l.m.read(l.name)
	if !ok || rec.Worker != l.m.worker {
		return nil
	}
	if err := os.Remove(l.path); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("sharedfs: lease %s: %w", l.name, err)
	}
	return nil
}

// Holder reports the worker currently named in name's lease file, with
// ok false when no lease exists. Diagnostic / test surface.
func (m *LeaseManager) Holder(name string) (worker string, expired, ok bool) {
	rec, ok := m.read(name)
	if !ok {
		return "", false, false
	}
	return rec.Worker, m.expired(rec), true
}

// Heartbeat renews lease until the returned stop function is called,
// then releases it. Renewal runs at a third of the TTL so one missed
// beat (GC pause, NFS hiccup) does not forfeit the lease; logf (may be
// nil) receives renewal failures.
func Heartbeat(lease *Lease, ttl time.Duration, logf func(format string, args ...any)) (stop func()) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	quit := make(chan struct{})
	done := make(chan struct{})
	interval := ttl / 3
	if interval <= 0 {
		interval = time.Second
	}
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				if err := lease.Renew(); err != nil {
					logf("lease %s: %v (continuing; artifact writes stay safe)", lease.name, err)
					if errors.Is(err, ErrLeaseLost) {
						return
					}
				}
			}
		}
	}()
	return func() {
		close(quit)
		<-done
		if err := lease.Release(); err != nil {
			logf("lease %s: release: %v", lease.name, err)
		}
	}
}
