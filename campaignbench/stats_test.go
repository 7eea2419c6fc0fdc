package main

import (
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"os"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, tc := range []struct {
		p, want float64
	}{{10, 1}, {50, 5}, {90, 9}, {91, 10}, {100, 10}, {1, 1}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile([]float64{7}, 90); got != 7 {
		t.Errorf("single sample p90 = %v, want 7", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty p50 = %v, want 0", got)
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	ms := time.Millisecond
	parent := interval{0, 100 * ms}
	for _, tc := range []struct {
		name     string
		children []interval
		want     time.Duration
	}{
		{"no children", nil, 100 * ms},
		{"disjoint", []interval{{10 * ms, 20 * ms}, {30 * ms, 50 * ms}}, 70 * ms},
		// Two children running in parallel over [10,40) and [20,60)
		// cover 50ms of the parent once, not 70ms.
		{"parallel overlap", []interval{{10 * ms, 40 * ms}, {20 * ms, 60 * ms}}, 50 * ms},
		{"nested duplicate", []interval{{10 * ms, 60 * ms}, {20 * ms, 30 * ms}}, 50 * ms},
		{"touching", []interval{{0, 50 * ms}, {50 * ms, 100 * ms}}, 0},
		{"clipped to parent", []interval{{-20 * ms, 10 * ms}, {90 * ms, 150 * ms}}, 80 * ms},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: self = %v, want %v", tc.name, got, tc.want)
		}
	}

	// The same through recorded spans: a cell whose two children ran in
	// parallel.
	tr := newTracer()
	root := tr.root("cell", 0)
	root.record("a", 1, 10*ms, 40*ms, nil)
	root.record("b", 2, 20*ms, 60*ms, nil)
	root.start = 0
	root.endAt(100 * ms)
	self := selfTimes(tr.snapshot())
	if got := self[root.id]; got != 50*ms {
		t.Errorf("cell self = %v, want 50ms", got)
	}
}

// fakeClock advances only when the generator sleeps or a request
// "takes" time.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time { return c.now }

func (c *fakeClock) SleepUntil(t time.Time) {
	if t.After(c.now) {
		c.now = t
	}
}

func TestOpenLoopLatencyFromDueTime(t *testing.T) {
	start := time.Unix(1000, 0)
	c := &fakeClock{now: start}
	period := 50 * time.Millisecond
	// Request 2 stalls for 180ms; the rest take 10ms.
	took := []time.Duration{10, 10, 180, 10, 10, 10, 10}
	i := 0
	samples := openLoop(c, start, period, func() error {
		c.now = c.now.Add(took[i] * time.Millisecond)
		i++
		return nil
	}, func() bool { return i == len(took) })

	if len(samples) != len(took) {
		t.Fatalf("%d samples, want %d", len(samples), len(took))
	}
	for k, s := range samples {
		if want := start.Add(time.Duration(k) * period); !s.due.Equal(want) {
			t.Errorf("request %d due %v, want %v", k, s.due.Sub(start), want.Sub(start))
		}
	}
	// Request 2 is due at 100ms and ends at 280ms. Requests 3, 4 and 5
	// (due 150, 200, 250ms) could only be sent after it: each is late
	// and its latency counts from its due time, not its send time.
	wantLate := []time.Duration{0, 0, 0, 130, 90, 50, 10}
	wantLat := []time.Duration{10, 10, 180, 140, 100, 60, 20}
	for k, s := range samples {
		if got := s.late(); got != wantLate[k]*time.Millisecond {
			t.Errorf("request %d late %v, want %vms", k, got, wantLate[k])
		}
		if got := s.latency(); got != wantLat[k]*time.Millisecond {
			t.Errorf("request %d latency %v, want %vms", k, got, wantLat[k])
		}
	}
	// Request 6 (due 300ms) is only 10ms late: the backlog drained.
	st := summariseLoad(samples, time.Second)
	if st.p50ms != 60 || st.p90ms != 180 {
		t.Errorf("latency p50/p90 = %v/%v ms, want 60/180", st.p50ms, st.p90ms)
	}
	if st.lateP90ms != 130 {
		t.Errorf("late p90 = %v ms, want 130", st.lateP90ms)
	}
	if st.ops.attempted != 7 || st.ops.failed != 0 {
		t.Errorf("ops = %+v, want 7 attempted, 0 failed", st.ops)
	}
}

func TestFailedFracCountsRefusedRequests(t *testing.T) {
	// A port nobody listens on: the connection is refused.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	c := newClient("http://" + addr)
	if _, err := c.do(http.MethodGet, "/healthz", nil); err == nil {
		t.Fatal("request to a closed port succeeded")
	}
	if c.ops.attempted != 1 || c.ops.failed != 1 {
		t.Fatalf("refused request accounted as %+v, want 1 attempted, 1 failed", c.ops)
	}

	// An open loop whose second request fails: it counts as failed and
	// at no less than the timeout in the latency percentiles.
	start := time.Unix(0, 0)
	clk := &fakeClock{now: start}
	n := 0
	samples := openLoop(clk, start, 50*time.Millisecond, func() error {
		n++
		clk.now = clk.now.Add(time.Millisecond)
		if n == 2 {
			return errors.New("connection refused")
		}
		return nil
	}, func() bool { return n == 2 })
	st := summariseLoad(samples, 5*time.Second)
	if st.ops.attempted != 2 || st.ops.failed != 1 || st.ops.failedFrac() != 0.5 {
		t.Errorf("ops = %+v (failed_frac %v), want 2 attempted, 1 failed", st.ops, st.ops.failedFrac())
	}
	if st.p90ms != 5000 {
		t.Errorf("p90 with a failed request = %v ms, want the 5000ms timeout", st.p90ms)
	}

	var total ops
	total.add(ops{attempted: 3})
	total.add(ops{attempted: 1, failed: 1})
	if total.failedFrac() != 0.25 {
		t.Errorf("failed_frac = %v, want 0.25", total.failedFrac())
	}
	if (ops{}).failedFrac() != 0 {
		t.Error("failed_frac of nothing attempted is not 0")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's metric lists in step
// with what the command reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no implementation", w.Name)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the command has %d", len(b.Workloads), len(workloads))
	}
	same := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the command reports %d", kind, len(got), len(want))
			return
		}
		for i, w := range want {
			if g := got[i]; g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, command %+v", kind, i, g, w)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}
