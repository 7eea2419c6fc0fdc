// Package slambench is the benchmarking harness of the reproduction — the
// analogue of the SLAMBench framework the paper describes. It runs any
// SLAM system over any dataset sequence while jointly collecting the three
// metric families of the paper:
//
//   - speed: wall-clock per frame (this process) and simulated per-frame
//     latency/FPS on a modelled device,
//   - accuracy: absolute trajectory error against the sequence's ground
//     truth (max/mean/RMSE, the "Max ATE" of Figure 2),
//   - power: simulated per-frame energy and average power on the modelled
//     device.
package slambench

import (
	"errors"
	"fmt"
	"time"

	"slamgo/internal/dataset"
	"slamgo/internal/device"
	"slamgo/internal/imgproc"
	"slamgo/internal/math3"
	"slamgo/internal/trajectory"
)

// FrameOutput is what a System reports per processed frame.
type FrameOutput struct {
	Pose    math3.SE3
	Tracked bool
	// Cost is the frame's total arithmetic cost for the device model.
	Cost imgproc.Cost
	// KernelCosts optionally breaks Cost down by stage name.
	KernelCosts map[string]imgproc.Cost
}

// System is a SLAM algorithm under benchmark.
type System interface {
	// Name identifies the algorithm (+configuration summary).
	Name() string
	// Process consumes one frame and returns the current pose estimate.
	Process(f *dataset.Frame) (FrameOutput, error)
}

// FrameRecord is one frame's full measurement row.
type FrameRecord struct {
	Index    int
	Time     float64
	Tracked  bool
	Pose     math3.SE3
	ATE      float64
	WallTime time.Duration
	Cost     imgproc.Cost
	// Device-model results (zero when no model configured).
	SimLatency  float64
	SimEnergy   float64
	SimPower    float64
	KernelCosts map[string]imgproc.Cost
}

// Summary aggregates a full run, mirroring the read-outs of the
// SLAMBench GUI (Figure 1) and the axes of Figure 2.
type Summary struct {
	System   string
	Sequence string
	Frames   int

	// Accuracy.
	ATE             trajectory.ATEStats
	RPE             trajectory.RPEStats
	TrackedFraction float64

	// Speed (wall clock of this process).
	WallMeanFrame time.Duration
	WallFPS       float64

	// Speed and power on the simulated device.
	Device              string
	SimMeanLatency      float64
	SimFPS              float64
	SimMeanPower        float64
	SimTotalEnergy      float64
	SimRealTimeFraction float64

	Records []FrameRecord
}

// MeetsRealTime reports whether the simulated device sustained the
// sensor rate (30 FPS by convention).
func (s *Summary) MeetsRealTime() bool { return s.SimFPS >= 30 }

// Runner executes systems over sequences.
type Runner struct {
	// Model is the simulated execution target; nil collects wall-clock
	// and accuracy only.
	Model *device.Model
	// SensorFPS is the dataset frame rate used for the real-time period
	// (default 30).
	SensorFPS float64
	// PerFrame, when non-nil, observes every frame record as it is
	// produced (the GUI hook).
	PerFrame func(FrameRecord)
}

// Run benchmarks one system over one sequence.
func (r *Runner) Run(sys System, seq dataset.Sequence) (*Summary, error) {
	if sys == nil || seq == nil {
		return nil, errors.New("slambench: nil system or sequence")
	}
	fps := r.SensorFPS
	if fps <= 0 {
		fps = 30
	}
	period := 1 / fps

	est := &trajectory.Trajectory{}
	gt := &trajectory.Trajectory{}
	sum := &Summary{System: sys.Name(), Sequence: seq.Name(), Frames: seq.Len()}
	run := device.Run{Model: r.Model, Period: period}
	if r.Model != nil {
		sum.Device = r.Model.Profile.Name + "/" + r.Model.Point.Name
	}

	tracked := 0
	var wallTotal time.Duration

	for i := 0; i < seq.Len(); i++ {
		f, err := seq.Frame(i)
		if err != nil {
			return nil, fmt.Errorf("slambench: frame %d: %w", i, err)
		}
		start := time.Now()
		out, err := sys.Process(f)
		if err != nil {
			return nil, fmt.Errorf("slambench: %s frame %d: %w", sys.Name(), i, err)
		}
		wall := time.Since(start)
		wallTotal += wall

		rec := FrameRecord{
			Index:       i,
			Time:        f.Time,
			Tracked:     out.Tracked,
			Pose:        out.Pose,
			WallTime:    wall,
			Cost:        out.Cost,
			KernelCosts: out.KernelCosts,
		}
		if out.Tracked {
			tracked++
		}
		if f.HasGT {
			rec.ATE = out.Pose.T.Dist(f.GroundTruth.T)
			est.Append(f.Time, out.Pose)
			gt.Append(f.Time, f.GroundTruth)
		}
		if r.Model != nil {
			st := run.Execute(out.Cost)
			rec.SimLatency = st.Latency
			rec.SimEnergy = st.Energy
			rec.SimPower = st.Power
		}
		if r.PerFrame != nil {
			r.PerFrame(rec)
		}
		sum.Records = append(sum.Records, rec)
	}

	n := seq.Len()
	if n == 0 {
		return nil, errors.New("slambench: empty sequence")
	}
	sum.TrackedFraction = float64(tracked) / float64(n)
	sum.WallMeanFrame = wallTotal / time.Duration(n)
	if wallTotal > 0 {
		sum.WallFPS = float64(n) / wallTotal.Seconds()
	}

	if est.Len() >= 2 {
		ate, err := trajectory.ATE(est, gt, false)
		if err != nil {
			return nil, err
		}
		sum.ATE = ate
		if est.Len() > 5 {
			rpe, err := trajectory.RPE(est, gt, 1)
			if err == nil {
				sum.RPE = rpe
			}
		}
	}

	if r.Model != nil {
		st := run.Stats()
		sum.SimMeanLatency = st.MeanLatency
		if sum.SimMeanLatency > 0 {
			sum.SimFPS = 1 / sum.SimMeanLatency
		}
		sum.SimTotalEnergy = st.TotalEnergy
		sum.SimMeanPower = st.MeanPower
		sum.SimRealTimeFraction = st.RealTimeFraction
	}
	return sum, nil
}
