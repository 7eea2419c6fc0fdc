// Package parallel is the shared concurrency substrate of the
// reproduction: a bounded worker pool over contiguous index chunks, a
// deterministic chunked map-reduce, and an ordered map for expensive
// uneven tasks (DSE evaluations, forest fitting).
//
// Determinism is the design constraint that shapes everything here. The
// DSE must produce byte-identical results for any worker count, and the
// frame kernels reduce floating-point sums whose value depends on
// association order. Both are solved the same way: work is split into
// chunks whose boundaries depend only on the problem size n — never on
// the worker count — and per-chunk partial results are merged serially
// in ascending chunk order. Workers race only over *which* chunk they
// pull next (an atomic counter), not over where chunk boundaries fall or
// the order partials combine, so ICP normal equations, raycast step
// counts and surrogate predictions are bit-identical whether the host
// has 1 core or 64.
package parallel

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// TaskPanic is the value re-raised on the calling goroutine when a task
// body panics inside a parallel region. A panic on a pool goroutine
// would otherwise kill the whole process with no recovery point; the
// pool instead records it, lets the surviving workers drain, and
// panics on the caller — where a defer can contain the damage to the
// one task that misbehaved (the campaign engine quarantines a
// panicking cell this way). When several tasks panic, the one with the
// lowest chunk/item index wins, so which panic surfaces does not
// depend on the worker count.
type TaskPanic struct {
	// Index is the chunk (For/Reduce) or item (MapOrdered) the panic
	// came from.
	Index int
	// Value is the original panic value. Nested parallel regions wrap
	// panics once per level; unwrap through Value to reach the root.
	Value any
	// Stack is the panicking goroutine's stack at recovery time.
	Stack []byte
}

func (p *TaskPanic) String() string {
	return fmt.Sprintf("parallel: task %d panicked: %v", p.Index, p.Value)
}

// Unwrap returns the root panic value beneath any chain of TaskPanics
// (one per nested parallel region the panic crossed).
func (p *TaskPanic) Unwrap() any {
	v := p.Value
	for {
		tp, ok := v.(*TaskPanic)
		if !ok {
			return v
		}
		v = tp.Value
	}
}

// panicTrap records the lowest-index panic of a parallel region. The
// tripped flag lets workers stop claiming new chunks once a panic is
// pending — the region is going to re-panic anyway, so starting more
// work only wastes cycles.
type panicTrap struct {
	mu      sync.Mutex
	tripped atomic.Bool
	p       *TaskPanic
}

func (t *panicTrap) record(index int, v any) {
	stack := debug.Stack()
	t.mu.Lock()
	if t.p == nil || index < t.p.Index {
		t.p = &TaskPanic{Index: index, Value: v, Stack: stack}
	}
	t.mu.Unlock()
	t.tripped.Store(true)
}

// run executes f for task index, converting a panic into a record.
func (t *panicTrap) run(index int, f func()) {
	defer func() {
		if v := recover(); v != nil {
			t.record(index, v)
		}
	}()
	f()
}

// rethrow re-raises the recorded panic, if any, on the caller.
func (t *panicTrap) rethrow() {
	if t.p != nil {
		panic(t.p)
	}
}

// maxChunks bounds how finely an index range is split. More chunks than
// workers gives the atomic-counter scheduler room to balance uneven
// work (rays that march far, rows dense with correspondences) without
// making per-chunk partials costly to merge.
const maxChunks = 64

// active counts workers currently running across all parallel regions.
// Nested parallelism (a ParallelEvaluator fanning out SLAM evaluations
// whose kernels themselves call Reduce) would otherwise oversubscribe
// the CPU with Workers × GOMAXPROCS runnable goroutines; capWorkers
// gives inner regions only the cores the outer region left idle. This
// is pure scheduling backpressure — chunk boundaries and merge order
// never depend on it, so results are unaffected.
var active atomic.Int64

// capWorkers shrinks a requested worker count to the idle core budget.
// Top-level regions (no other region running) get what they asked for;
// nested regions get at most the cores the enclosing regions left idle,
// always at least one.
func capWorkers(w int) int {
	a := int(active.Load())
	if a == 0 {
		return w
	}
	idle := runtime.GOMAXPROCS(0) - a
	if w > idle {
		w = idle
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Workers resolves a worker-count knob: n ≥ 1 is used as-is, anything
// else (the zero value of a config field) means GOMAXPROCS.
func Workers(n int) int {
	if n >= 1 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// chunkCount splits n items into a chunk count that depends only on n.
func chunkCount(n int) int {
	if n < maxChunks {
		return n
	}
	return maxChunks
}

// For runs body over [0,n) split into contiguous chunks scheduled across
// at most workers goroutines (workers ≤ 0 means GOMAXPROCS). Chunk
// boundaries depend only on n, so any chunk-local side effects land
// identically regardless of worker count. body must not touch the same
// memory from two different chunks, and its effects must not depend on
// how the range is subdivided (with one worker the whole range may
// arrive as a single call) — per-chunk accumulators belong in Reduce.
// A panicking body does not kill the process: the panic is re-raised on
// the caller as a *TaskPanic (see its doc), which a caller-side defer
// can recover.
func For(n, workers int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	nc := chunkCount(n)
	w := Workers(workers)
	if w > nc {
		w = nc
	}
	w = capWorkers(w)
	var trap panicTrap
	if w <= 1 {
		trap.run(0, func() { body(0, n) })
		trap.rethrow()
		return
	}
	active.Add(int64(w))
	defer active.Add(-int64(w))
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for !trap.tripped.Load() {
				c := int(next.Add(1)) - 1
				if c >= nc {
					return
				}
				lo, hi := chunkBounds(n, nc, c)
				trap.run(c, func() { body(lo, hi) })
			}
		}()
	}
	wg.Wait()
	trap.rethrow()
}

// chunkBounds returns the half-open range of chunk c of nc chunks over n.
func chunkBounds(n, nc, c int) (lo, hi int) {
	size := n / nc
	rem := n % nc
	// The first rem chunks carry one extra item.
	if c < rem {
		lo = c * (size + 1)
		hi = lo + size + 1
		return lo, hi
	}
	lo = rem*(size+1) + (c-rem)*size
	return lo, lo + size
}

// Reduce computes a per-chunk partial with body and folds the partials
// with merge in ascending chunk order. Because the chunking depends only
// on n, the fold is associated identically for every worker count —
// floating-point reductions (ICP normal equations, cost sums) come out
// bit-exact no matter the parallelism.
func Reduce[A any](n, workers int, body func(lo, hi int) A, merge func(*A, A)) A {
	return ReduceInto(nil, n, workers, body, merge)
}

// ReduceInto is Reduce keeping the per-chunk partials in *scratch,
// which it grows when too short, so a caller that reduces again and
// again (an ICP solve, once per iteration) allocates them once. A nil
// scratch allocates them per call. Two reductions running at once must
// not share a scratch. Chunking and merge order are Reduce's.
func ReduceInto[A any](scratch *[]A, n, workers int, body func(lo, hi int) A, merge func(*A, A)) A {
	var zero A
	if n <= 0 {
		return zero
	}
	nc := chunkCount(n)
	w := Workers(workers)
	if w > nc {
		w = nc
	}
	w = capWorkers(w)
	var trap panicTrap
	if w <= 1 {
		// Same chunking as the parallel path so the fold associates
		// identically — workers=1 is the reference everything must match.
		var acc A
		for c := 0; c < nc && !trap.tripped.Load(); c++ {
			lo, hi := chunkBounds(n, nc, c)
			trap.run(c, func() {
				part := body(lo, hi)
				if c == 0 {
					acc = part
				} else {
					merge(&acc, part)
				}
			})
		}
		trap.rethrow()
		return acc
	}
	active.Add(int64(w))
	defer active.Add(-int64(w))
	partials := grow(scratch, nc)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for !trap.tripped.Load() {
				c := int(next.Add(1)) - 1
				if c >= nc {
					return
				}
				lo, hi := chunkBounds(n, nc, c)
				trap.run(c, func() { partials[c] = body(lo, hi) })
			}
		}()
	}
	wg.Wait()
	trap.rethrow()
	acc := partials[0]
	for c := 1; c < nc; c++ {
		merge(&acc, partials[c])
	}
	return acc
}

// grow returns *scratch resliced to n entries, reallocating it when it
// holds fewer; a nil scratch gets a fresh slice.
func grow[A any](scratch *[]A, n int) []A {
	if scratch == nil {
		return make([]A, n)
	}
	if cap(*scratch) < n {
		*scratch = make([]A, n)
	}
	return (*scratch)[:n]
}

// MapOrdered applies fn to every item on a bounded pool and returns the
// results in input order. Items are claimed one at a time from an atomic
// counter, which keeps long tasks (a slow SLAM evaluation, a deep tree)
// from serialising behind short ones. fn receives the item index so
// callers can derive per-item deterministic state (e.g. seeds). A
// panicking fn is contained and re-raised on the caller as a
// *TaskPanic (lowest item index wins), recoverable by a caller-side
// defer.
func MapOrdered[T, R any](workers int, items []T, fn func(i int, item T) R) []R {
	n := len(items)
	if n == 0 {
		return nil
	}
	out := make([]R, n)
	w := Workers(workers)
	if w > n {
		w = n
	}
	w = capWorkers(w)
	var trap panicTrap
	if w <= 1 {
		for i := 0; i < n && !trap.tripped.Load(); i++ {
			trap.run(i, func() { out[i] = fn(i, items[i]) })
		}
		trap.rethrow()
		return out
	}
	active.Add(int64(w))
	defer active.Add(-int64(w))
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for !trap.tripped.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				trap.run(i, func() { out[i] = fn(i, items[i]) })
			}
		}()
	}
	wg.Wait()
	trap.rethrow()
	return out
}
