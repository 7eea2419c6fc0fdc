// Package device models the execution targets the paper measures on but
// we do not physically have: the ODROID-XU3 embedded board (Exynos 5422
// big.LITTLE + Mali GPU with on-board power sensors) and a population of
// mobile-phone SoCs.
//
// The model is a calibrated roofline: each pipeline kernel reports the
// arithmetic operations it performed and the bytes it moved
// (imgproc.Cost); a device profile converts that into simulated latency
// (compute- or bandwidth-bound, whichever dominates) and energy (static
// power × time + per-op and per-byte switching energy). DVFS operating
// points scale throughput linearly with frequency and dynamic power with
// f·V², the standard CMOS approximation.
//
// Absolute numbers are not the goal — relative time/power across
// algorithmic configurations is, and those ratios are preserved because
// every configuration's op/byte counts flow through the same profile.
package device

import (
	"fmt"
	"math"

	"slamgo/internal/imgproc"
)

// OperatingPoint is one DVFS state.
type OperatingPoint struct {
	// Name labels the point (e.g. "1.8GHz@1.1V").
	Name string
	// FreqScale multiplies the profile's peak throughput (1.0 = nominal).
	FreqScale float64
	// VoltScale multiplies the nominal voltage (dynamic power ∝ f·V²).
	VoltScale float64
}

// Profile describes one execution target at its nominal operating point.
type Profile struct {
	// Name identifies the device (e.g. "odroid-xu3").
	Name string
	// GopsPeak is the effective compute throughput in Gop/s — already
	// discounted for achievable (not theoretical) utilisation.
	GopsPeak float64
	// BandwidthGBs is the achievable memory bandwidth in GB/s.
	BandwidthGBs float64
	// StaticWatts is the always-on power draw (rails, DRAM refresh, OS).
	StaticWatts float64
	// DynamicWatts is the additional draw at 100% utilisation, nominal
	// operating point.
	DynamicWatts float64
	// Points are the available DVFS states; empty means nominal only.
	Points []OperatingPoint
	// Year is the device's market year (used by the phone catalogue).
	Year int
	// FrameOverheadSec is a fixed per-frame dispatch/driver overhead —
	// the dominant term on phones once kernels get cheap, and the reason
	// tuned-configuration speed-ups vary so widely across devices
	// (Figure 3 of the paper).
	FrameOverheadSec float64
}

// Validate reports non-physical profiles.
func (p Profile) Validate() error {
	if p.GopsPeak <= 0 || p.BandwidthGBs <= 0 {
		return fmt.Errorf("device %q: non-positive throughput", p.Name)
	}
	if p.StaticWatts < 0 || p.DynamicWatts <= 0 {
		return fmt.Errorf("device %q: non-physical power", p.Name)
	}
	return nil
}

// Model is a profile pinned to one operating point, ready to execute
// kernel costs.
type Model struct {
	Profile Profile
	Point   OperatingPoint
}

// NewModel pins profile to its nominal operating point.
func NewModel(p Profile) *Model {
	return &Model{Profile: p, Point: OperatingPoint{Name: "nominal", FreqScale: 1, VoltScale: 1}}
}

// AtPoint returns a copy of the model at the named operating point.
func (m *Model) AtPoint(name string) (*Model, error) {
	for _, op := range m.Profile.Points {
		if op.Name == name {
			return &Model{Profile: m.Profile, Point: op}, nil
		}
	}
	return nil, fmt.Errorf("device %q: unknown operating point %q", m.Profile.Name, name)
}

// Points lists the profile's operating-point names.
func (m *Model) Points() []string {
	out := make([]string, len(m.Profile.Points))
	for i, op := range m.Profile.Points {
		out[i] = op.Name
	}
	return out
}

// Latency returns the simulated execution time of a kernel cost.
func (m *Model) Latency(c imgproc.Cost) float64 {
	gops := m.Profile.GopsPeak * m.Point.FreqScale
	bw := m.Profile.BandwidthGBs // memory clock modelled as DVFS-independent
	tCompute := float64(c.Ops) / (gops * 1e9)
	tMemory := float64(c.Bytes) / (bw * 1e9)
	return math.Max(tCompute, tMemory)
}

// Energy returns the simulated energy (joules) to execute cost c,
// assuming the device races to idle afterwards.
func (m *Model) Energy(c imgproc.Cost) float64 {
	t := m.Latency(c)
	dyn := m.Profile.DynamicWatts * m.Point.FreqScale * m.Point.VoltScale * m.Point.VoltScale
	return (m.Profile.StaticWatts + dyn) * t
}

// FrameStats describes one frame executed under a real-time period.
type FrameStats struct {
	// Latency is the busy time of the frame (seconds).
	Latency float64
	// Energy spent on the frame, including idle static power until the
	// period deadline when the frame finishes early (joules).
	Energy float64
	// Power is Energy divided by the accounting window (watts).
	Power float64
	// MetDeadline reports whether Latency ≤ period.
	MetDeadline bool
}

// ExecuteFrame runs a frame's total cost against a sensor period (e.g.
// 1/30 s). If the frame finishes early the device idles (static power
// only) for the remainder — the race-to-idle policy embedded systems use;
// if it overruns, the accounting window stretches to the busy time.
func (m *Model) ExecuteFrame(c imgproc.Cost, period float64) FrameStats {
	lat := m.Latency(c) + m.Profile.FrameOverheadSec
	busyEnergy := m.Energy(c) + m.Profile.FrameOverheadSec*m.Profile.StaticWatts
	window := period
	if lat > period || period <= 0 {
		window = lat
	}
	idle := (window - lat) * m.Profile.StaticWatts
	e := busyEnergy + idle
	power := 0.0
	if window > 0 {
		power = e / window
	}
	return FrameStats{
		Latency:     lat,
		Energy:      e,
		Power:       power,
		MetDeadline: lat <= period,
	}
}

// Run executes the frames of one run back to back, one per sensor
// period, and sums them into the run's figures. Every run-level device
// number, measured live or replayed from a trace, comes from a Run.
type Run struct {
	Model  *Model
	Period float64 // sensor period (seconds)

	frames, met  int
	busy, energy float64
}

// RunStats are a run's device figures: the mean per-frame latency
// (seconds), the total energy with idle time included (joules), the
// power over the run's window — n sensor periods, or the busy time when
// the device fell behind (watts) — and the share of frames that met the
// deadline.
type RunStats struct {
	MeanLatency, TotalEnergy, MeanPower, RealTimeFraction float64
}

// Execute runs the next frame (see ExecuteFrame) and adds it to the run.
func (r *Run) Execute(c imgproc.Cost) FrameStats {
	st := r.Model.ExecuteFrame(c, r.Period)
	r.frames++
	r.busy += st.Latency
	r.energy += st.Energy
	if st.MetDeadline {
		r.met++
	}
	return st
}

// Stats summarises the frames executed so far; a run without frames
// has zero stats.
func (r *Run) Stats() RunStats {
	if r.frames == 0 {
		return RunStats{}
	}
	n := float64(r.frames)
	return RunStats{
		MeanLatency:      r.busy / n,
		TotalEnergy:      r.energy,
		MeanPower:        r.energy / max(n*r.Period, r.busy),
		RealTimeFraction: float64(r.met) / n,
	}
}

// FPS converts a per-frame latency into achievable frame rate.
func FPS(latency float64) float64 {
	if latency <= 0 {
		return 0
	}
	return 1 / latency
}
