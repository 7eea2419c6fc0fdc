package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// xs: the smallest sample with at least p% of the samples at or below
// it. It returns 0 for no samples. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median returns the middle sample of xs, averaging the two middle
// samples of an even count; 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a/b, or 0 when b is 0 (a share of nothing is reported as
// none rather than NaN).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// interval is a half-open time range [lo, hi).
type interval struct{ lo, hi time.Duration }

// covered returns how much of [lo, hi) the union of ivs covers.
// Overlapping intervals count once, which is what makes self time
// correct when a span's children ran in parallel.
func covered(lo, hi time.Duration, ivs []interval) time.Duration {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv.lo, lo), min(iv.hi, hi)
		if b > a {
			clipped = append(clipped, interval{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var total time.Duration
	var cur interval
	for i, iv := range clipped {
		switch {
		case i == 0:
			cur = iv
		case iv.lo <= cur.hi:
			cur.hi = max(cur.hi, iv.hi)
		default:
			total += cur.hi - cur.lo
			cur = iv
		}
	}
	if len(clipped) > 0 {
		total += cur.hi - cur.lo
	}
	return total
}

// selfTime is a span's duration minus the part of it its children
// cover.
func selfTime(span interval, children []interval) time.Duration {
	return span.hi - span.lo - covered(span.lo, span.hi, children)
}

// ops counts attempted and failed operations. Every request that does
// not complete successfully — refused, timed out or answered with an
// error status — counts as failed.
type ops struct {
	attempted, failed int
}

func (o *ops) record(err error) {
	o.attempted++
	if err != nil {
		o.failed++
	}
}

func (o *ops) add(p ops) {
	o.attempted += p.attempted
	o.failed += p.failed
}

func (o ops) failedFrac() float64 { return ratio(float64(o.failed), float64(o.attempted)) }

// sample is one open-loop request: when it was due, when the generator
// actually sent it, and when it completed.
type sample struct {
	due, sent, done time.Time
	err             error
}

// latency is measured from the due time, so a request delayed behind a
// slow predecessor carries that wait (no coordinated omission).
func (s sample) latency() time.Duration { return s.done.Sub(s.due) }

// late is how far behind its schedule the generator sent the request.
func (s sample) late() time.Duration { return s.sent.Sub(s.due) }

// clock abstracts time so the generator can be tested without
// sleeping.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

func (realClock) SleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// openLoop sends do() on a fixed schedule — request i is due at
// start + i·period — until stop reports true. A request is never sent
// before it is due; when the previous one overran, the next is sent
// immediately and its lateness recorded, so a stall shows up as
// latency of every request it delayed rather than as fewer requests.
func openLoop(c clock, start time.Time, period time.Duration, do func() error, stop func() bool) []sample {
	var out []sample
	for i := 0; !stop(); i++ {
		due := start.Add(time.Duration(i) * period)
		c.SleepUntil(due)
		s := sample{due: due, sent: c.Now()}
		s.err = do()
		s.done = c.Now()
		out = append(out, s)
	}
	return out
}

// loadStats summarises an open-loop run: latency percentiles (ms),
// the generator's p90 lateness (ms), and the request accounting.
type loadStats struct {
	p50ms, p90ms, lateP90ms float64
	ops                     ops
}

// summariseLoad counts a failed request at no less than failedAt (the
// client timeout), so failures miss any latency limit instead of
// vanishing from the percentiles.
func summariseLoad(samples []sample, failedAt time.Duration) loadStats {
	var lat, late []float64
	var st loadStats
	for _, s := range samples {
		st.ops.record(s.err)
		late = append(late, ms(s.late()))
		l := s.latency()
		if s.err != nil {
			l = max(l, failedAt)
		}
		lat = append(lat, ms(l))
	}
	st.p50ms = percentile(lat, 50)
	st.p90ms = percentile(lat, 90)
	st.lateP90ms = percentile(late, 90)
	return st
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
