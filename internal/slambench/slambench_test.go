package slambench

import (
	"bytes"
	"strings"
	"testing"

	"slamgo/internal/camera"
	"slamgo/internal/dataset"
	"slamgo/internal/device"
	"slamgo/internal/kfusion"
	"slamgo/internal/math3"
	"slamgo/internal/odometry"
	"slamgo/internal/sdf"
	"slamgo/internal/synth"
)

func testSeq(t *testing.T, frames int) *dataset.MemorySequence {
	t.Helper()
	in := camera.Kinect640().ScaledTo(80, 60)
	traj := synth.Orbit(math3.V3(0, 0.5, -0.5), 1.3, 1.3, 0.4, 0.5, frames, 30)
	seq, err := dataset.Generate(dataset.SynthConfig{
		Name: "bench_seq", Scene: sdf.SimpleRoom(), Trajectory: traj,
		Intrinsics: in, Noise: synth.NoNoise(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return seq
}

func testKFConfig() kfusion.Config {
	cfg := kfusion.DefaultConfig()
	cfg.ComputeSizeRatio = 1
	cfg.VolumeResolution = 64
	cfg.VolumeSize = 4.5
	cfg.VolumeCenter = math3.V3(0, 1.1, 0)
	cfg.Mu = 0.15
	cfg.BilateralRadius = 1
	return cfg
}

func TestRunnerKFusionEndToEnd(t *testing.T) {
	seq := testSeq(t, 10)
	sys := NewKFusion(testKFConfig(), seq)
	model := device.NewModel(device.OdroidXU3())
	var seen int
	r := &Runner{Model: model, PerFrame: func(FrameRecord) { seen++ }}
	sum, err := r.Run(sys, seq)
	if err != nil {
		t.Fatal(err)
	}
	if seen != 10 || sum.Frames != 10 || len(sum.Records) != 10 {
		t.Fatalf("frame accounting wrong: seen=%d frames=%d", seen, sum.Frames)
	}
	if sum.TrackedFraction < 0.99 {
		t.Fatalf("tracking lost: %v", sum.TrackedFraction)
	}
	if sum.ATE.Max > 0.05 {
		t.Fatalf("max ATE %v", sum.ATE.Max)
	}
	if sum.WallFPS <= 0 || sum.WallMeanFrame <= 0 {
		t.Fatal("wall metrics missing")
	}
	if sum.SimFPS <= 0 || sum.SimMeanPower <= 0 || sum.SimTotalEnergy <= 0 {
		t.Fatalf("device metrics missing: %+v", sum)
	}
	if sum.Device != "odroid-xu3/nominal" {
		t.Fatalf("device label %q", sum.Device)
	}
	if sys.Pipeline() == nil {
		t.Fatal("pipeline not constructed")
	}
}

func TestRunnerOdometry(t *testing.T) {
	seq := testSeq(t, 8)
	cfg := odometry.DefaultConfig()
	cfg.ComputeSizeRatio = 1
	sys := NewOdometry(cfg, seq)
	r := &Runner{}
	sum, err := r.Run(sys, seq)
	if err != nil {
		t.Fatal(err)
	}
	if sum.TrackedFraction < 0.99 {
		t.Fatalf("odometry lost tracking: %v", sum.TrackedFraction)
	}
	if sum.SimFPS != 0 {
		t.Fatal("device metrics without a model")
	}
	if !strings.HasPrefix(sum.System, "odometry[") {
		t.Fatalf("system name %q", sum.System)
	}
}

func TestRunnerNilArgs(t *testing.T) {
	r := &Runner{}
	if _, err := r.Run(nil, nil); err == nil {
		t.Fatal("nil args accepted")
	}
}

func TestKFusionBeatsOdometryOnDrift(t *testing.T) {
	// The methodology claim behind SLAMBench's cross-algorithm
	// comparison: model-based tracking drifts less than frame-to-frame.
	seq := testSeq(t, 14)
	r := &Runner{}
	kf, err := r.Run(NewKFusion(testKFConfig(), seq), seq)
	if err != nil {
		t.Fatal(err)
	}
	cfg := odometry.DefaultConfig()
	cfg.ComputeSizeRatio = 1
	od, err := r.Run(NewOdometry(cfg, seq), seq)
	if err != nil {
		t.Fatal(err)
	}
	if kf.ATE.RMSE > od.ATE.RMSE*1.5 {
		t.Fatalf("kfusion (%v) much worse than odometry (%v)", kf.ATE.RMSE, od.ATE.RMSE)
	}
}

func TestReportWriters(t *testing.T) {
	seq := testSeq(t, 4)
	r := &Runner{Model: device.NewModel(device.OdroidXU3())}
	sum, err := r.Run(NewKFusion(testKFConfig(), seq), seq)
	if err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := WriteCSV(&csv, sum); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 5 { // header + 4 frames
		t.Fatalf("csv lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "frame,time,tracked") {
		t.Fatalf("csv header %q", lines[0])
	}

	var kb bytes.Buffer
	if err := KernelBreakdown(&kb, sum); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"preprocess", "track", "integrate", "raycast"} {
		if !strings.Contains(kb.String(), k) {
			t.Fatalf("breakdown missing %s:\n%s", k, kb.String())
		}
	}

	if !strings.Contains(FormatSummary(sum), "accuracy:") {
		t.Fatal("FormatSummary missing accuracy line")
	}
}

func TestKernelBreakdownEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := KernelBreakdown(&buf, &Summary{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no kernel costs") {
		t.Fatal("empty breakdown not reported")
	}
}
