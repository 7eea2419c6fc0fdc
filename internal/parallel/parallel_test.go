package parallel

import (
	"math"
	"sync/atomic"
	"testing"
)

func TestChunkBoundsCoverExactly(t *testing.T) {
	for _, n := range []int{1, 2, 3, 63, 64, 65, 100, 1000, 4096} {
		nc := chunkCount(n)
		covered := 0
		prevHi := 0
		for c := 0; c < nc; c++ {
			lo, hi := chunkBounds(n, nc, c)
			if lo != prevHi {
				t.Fatalf("n=%d chunk %d starts at %d, want %d", n, c, lo, prevHi)
			}
			if hi <= lo {
				t.Fatalf("n=%d chunk %d empty [%d,%d)", n, c, lo, hi)
			}
			covered += hi - lo
			prevHi = hi
		}
		if covered != n || prevHi != n {
			t.Fatalf("n=%d covered %d ending at %d", n, covered, prevHi)
		}
	}
}

func TestForVisitsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 32} {
		const n = 1337
		var hits [n]atomic.Int32
		For(n, workers, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				hits[i].Add(1)
			}
		})
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d index %d visited %d times", workers, i, got)
			}
		}
	}
}

func TestForZeroAndNegativeN(t *testing.T) {
	called := false
	For(0, 4, func(lo, hi int) { called = true })
	For(-3, 4, func(lo, hi int) { called = true })
	if called {
		t.Fatal("body called for empty range")
	}
}

// TestReduceDeterministicAcrossWorkers is the core contract: a
// floating-point sum must be bit-identical for every worker count
// because chunk boundaries and merge order depend only on n.
func TestReduceDeterministicAcrossWorkers(t *testing.T) {
	const n = 10007
	vals := make([]float64, n)
	for i := range vals {
		// Values at wildly different magnitudes so association order
		// actually matters.
		vals[i] = math.Pow(10, float64(i%30)-15) * float64(1+i%7)
	}
	sum := func(workers int) float64 {
		return Reduce(n, workers, func(lo, hi int) float64 {
			s := 0.0
			for i := lo; i < hi; i++ {
				s += vals[i]
			}
			return s
		}, func(acc *float64, p float64) { *acc += p })
	}
	want := sum(1)
	for _, w := range []int{2, 3, 4, 8, 16, 64} {
		if got := sum(w); got != want {
			t.Fatalf("workers=%d sum %v != workers=1 sum %v", w, got, want)
		}
	}
}

// TestReduceIntoReusesScratch reduces problems of several sizes through
// one scratch: every sum must equal Reduce's single-worker reference bit
// for bit, and once grown to the largest chunk count the scratch is
// reused, not reallocated.
func TestReduceIntoReusesScratch(t *testing.T) {
	vals := make([]float64, 10007)
	for i := range vals {
		vals[i] = math.Pow(10, float64(i%30)-15) * float64(1+i%7)
	}
	sum := func(lo, hi int) float64 {
		s := 0.0
		for i := lo; i < hi; i++ {
			s += vals[i]
		}
		return s
	}
	add := func(acc *float64, p float64) { *acc += p }
	var scratch []float64
	var first *float64
	for _, n := range []int{10007, 5, 64, 200, 10007} {
		for _, w := range []int{1, 2, 4, 8} {
			want := Reduce(n, 1, sum, add)
			if got := ReduceInto(&scratch, n, w, sum, add); got != want {
				t.Fatalf("n=%d workers=%d: ReduceInto %v != Reduce %v", n, w, got, want)
			}
			if len(scratch) == 0 {
				continue
			}
			if first == nil {
				first = &scratch[:1][0]
			} else if &scratch[:1][0] != first {
				t.Fatalf("n=%d workers=%d: scratch reallocated", n, w)
			}
		}
	}
	if first == nil {
		t.Fatal("no parallel reduction used the scratch")
	}
}

func TestReduceEmpty(t *testing.T) {
	got := Reduce(0, 4, func(lo, hi int) int { return 1 }, func(a *int, b int) { *a += b })
	if got != 0 {
		t.Fatalf("empty reduce = %d", got)
	}
}

func TestMapOrderedPreservesOrder(t *testing.T) {
	items := make([]int, 513)
	for i := range items {
		items[i] = i * 3
	}
	for _, workers := range []int{1, 2, 8, 100} {
		out := MapOrdered(workers, items, func(i, v int) int { return v + i })
		for i, v := range out {
			if v != i*4 {
				t.Fatalf("workers=%d out[%d]=%d want %d", workers, i, v, i*4)
			}
		}
	}
	if MapOrdered(4, []int(nil), func(i, v int) int { return v }) != nil {
		t.Fatal("nil items should map to nil")
	}
}

// recoverTaskPanic runs f expecting it to panic with a *TaskPanic and
// returns it; the test fails if f returns normally or panics with
// anything else.
func recoverTaskPanic(t *testing.T, f func()) *TaskPanic {
	t.Helper()
	var tp *TaskPanic
	func() {
		defer func() {
			p := recover()
			if p == nil {
				t.Fatal("no panic surfaced")
			}
			var ok bool
			if tp, ok = p.(*TaskPanic); !ok {
				t.Fatalf("panic value %T, want *TaskPanic", p)
			}
		}()
		f()
	}()
	return tp
}

// TestMapOrderedContainsPanics: a panicking task must not kill the
// process from a pool goroutine; it surfaces on the caller as a
// recoverable *TaskPanic carrying the original value.
func TestMapOrderedContainsPanics(t *testing.T) {
	items := []int{0, 1, 2, 3, 4, 5, 6, 7}
	for _, workers := range []int{1, 2, 8} {
		tp := recoverTaskPanic(t, func() {
			MapOrdered(workers, items, func(i, v int) int {
				if v == 3 {
					panic("poisoned item")
				}
				return v
			})
		})
		if tp.Index != 3 || tp.Unwrap() != "poisoned item" {
			t.Fatalf("workers=%d: TaskPanic{Index: %d, Value: %v}", workers, tp.Index, tp.Value)
		}
		if len(tp.Stack) == 0 {
			t.Fatalf("workers=%d: TaskPanic has no stack", workers)
		}
	}
}

// TestPanicChoiceDeterministic: with several panicking tasks the
// lowest index surfaces, whatever the worker count or scheduling.
func TestPanicChoiceDeterministic(t *testing.T) {
	items := make([]int, 64)
	for i := range items {
		items[i] = i
	}
	for _, workers := range []int{1, 4, 16} {
		for run := 0; run < 3; run++ {
			tp := recoverTaskPanic(t, func() {
				MapOrdered(workers, items, func(i, v int) int {
					if v == 11 || v == 40 || v == 63 {
						panic(v)
					}
					return v
				})
			})
			if tp.Index != 11 || tp.Unwrap() != 11 {
				t.Fatalf("workers=%d run=%d: surfaced task %d (%v), want 11",
					workers, run, tp.Index, tp.Value)
			}
		}
	}
}

// TestForAndReduceContainPanics covers the chunked entry points; the
// chunk index (not the item index) identifies the failing task.
func TestForAndReduceContainPanics(t *testing.T) {
	for _, workers := range []int{1, 4} {
		tp := recoverTaskPanic(t, func() {
			For(100, workers, func(lo, hi int) {
				if lo <= 42 && 42 < hi {
					panic("for-boom")
				}
			})
		})
		if tp.Unwrap() != "for-boom" {
			t.Fatalf("For workers=%d: %v", workers, tp.Value)
		}
		tp = recoverTaskPanic(t, func() {
			Reduce(100, workers, func(lo, hi int) int {
				if lo == 0 {
					panic("reduce-boom")
				}
				return hi - lo
			}, func(a *int, b int) { *a += b })
		})
		if tp.Index != 0 || tp.Unwrap() != "reduce-boom" {
			t.Fatalf("Reduce workers=%d: TaskPanic{Index: %d, Value: %v}", workers, tp.Index, tp.Value)
		}
	}
}

// TestNestedPanicUnwraps: a panic crossing two parallel regions is
// wrapped once per level and Unwrap reaches the root value.
func TestNestedPanicUnwraps(t *testing.T) {
	tp := recoverTaskPanic(t, func() {
		MapOrdered(2, []int{0, 1}, func(i, v int) int {
			if v == 1 {
				MapOrdered(2, []int{0, 1}, func(j, w int) int {
					panic("root cause")
				})
			}
			return v
		})
	})
	if tp.Unwrap() != "root cause" {
		t.Fatalf("nested unwrap = %v", tp.Unwrap())
	}
	if _, ok := tp.Value.(*TaskPanic); !ok {
		t.Fatalf("outer TaskPanic.Value is %T, want nested *TaskPanic", tp.Value)
	}
}

func TestWorkersKnob(t *testing.T) {
	if Workers(3) != 3 {
		t.Fatal("explicit worker count ignored")
	}
	if Workers(0) < 1 || Workers(-1) < 1 {
		t.Fatal("defaulted worker count < 1")
	}
}

func BenchmarkReduceSum(b *testing.B) {
	b.ReportAllocs()
	const n = 1 << 16
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = float64(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Reduce(n, 0, func(lo, hi int) float64 {
			s := 0.0
			for j := lo; j < hi; j++ {
				s += vals[j]
			}
			return s
		}, func(acc *float64, p float64) { *acc += p })
	}
}
