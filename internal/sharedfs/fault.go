package sharedfs

import (
	"fmt"
	"os"
	"sync"
	"syscall"
)

// Fault injection for the stores' crash-safety suites: faults fire on a
// deterministic schedule keyed by operation index, and faults that
// damage data damage the real files on disk — the store's own defect
// handling (miss on corrupt, atomic replace on rewrite, inline
// degradation on a dead store) is what is under test, not a simulation
// of it. Every store built on Store (campaign checkpoints, seqcache,
// evalstore) runs its save and load attempts through the same plan.

// FaultKind selects what an injected fault does.
type FaultKind int

const (
	// FaultWriteError fails the save with ENOSPC before anything is
	// written — the classic full disk.
	FaultWriteError FaultKind = iota
	// FaultShortWrite lets the save publish, then truncates the
	// published artifact to half its bytes and reports ENOSPC — a torn
	// write on a filesystem without atomic-rename guarantees (or a crash
	// straddling the flush). Later loads must see the damage as a miss.
	FaultShortWrite
	// FaultCorruptRead flips bytes of the on-disk artifact before the
	// read — bit rot / a half-synced page. The store must treat the
	// damaged artifact as a miss and the caller must recompute it.
	FaultCorruptRead
	// FaultReadError fails the load with EIO without touching the file.
	FaultReadError
)

// FaultPlan schedules faults by zero-based operation index and counts
// the ones that fired. Every save attempt counts one save op and every
// load attempt one load op — retried attempts advance the counters too,
// so a transient fault is one that schedules no fault at the retried
// index. Safe for concurrent use; with concurrent callers the op order
// (and so the fault placement) depends on scheduling, so deterministic
// tests drive the store single-threaded. A nil plan injects nothing.
type FaultPlan struct {
	Save map[int]FaultKind
	Load map[int]FaultKind

	mu               sync.Mutex
	saveOps, loadOps int
	injected         int
}

// Injected reports how many faults have fired so far — tests assert it
// to prove the schedule actually exercised the recovery paths.
func (p *FaultPlan) Injected() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.injected
}

// next consumes one op of the save or load schedule.
func (p *FaultPlan) next(load bool) (FaultKind, bool) {
	if p == nil {
		return 0, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	ops, sched := &p.saveOps, p.Save
	if load {
		ops, sched = &p.loadOps, p.Load
	}
	k, ok := sched[*ops]
	*ops++
	if ok {
		p.injected++
	}
	return k, ok
}

// save runs one save attempt of path, applying the op's fault if the
// plan schedules one.
func (p *FaultPlan) save(path string, write func() error) error {
	kind, ok := p.next(false)
	if !ok {
		return write()
	}
	if kind == FaultShortWrite {
		// Let the real write land, then tear the published file: the
		// bytes that survive a short write are a prefix.
		if err := write(); err != nil {
			return err
		}
		if info, err := os.Stat(path); err == nil {
			os.Truncate(path, info.Size()/2)
		}
		return fmt.Errorf("sharedfs: fault injection: short write of %s: %w", path, syscall.ENOSPC)
	}
	return fmt.Errorf("sharedfs: fault injection: writing %s: %w", path, syscall.ENOSPC)
}

// load applies the op's fault, if any, before one load attempt of
// path. A corrupt-read fault damages the real file in place and lets
// the real load proceed (nil); a read-error fault fails it with EIO.
func (p *FaultPlan) load(path string) error {
	kind, ok := p.next(true)
	if !ok {
		return nil
	}
	if kind == FaultCorruptRead {
		if data, err := os.ReadFile(path); err == nil && len(data) > 0 {
			for i := range data {
				data[i] ^= 0x5a
			}
			os.WriteFile(path, data, 0o644)
		}
		return nil
	}
	return fmt.Errorf("sharedfs: fault injection: reading %s: %w", path, syscall.EIO)
}
