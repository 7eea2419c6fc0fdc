package device

import (
	"math"
	"testing"

	"slamgo/internal/imgproc"
)

func TestProfileValidate(t *testing.T) {
	if err := OdroidXU3().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := DesktopGPU().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Profile{Name: "x"}
	if err := bad.Validate(); err == nil {
		t.Fatal("zero profile accepted")
	}
	bad2 := OdroidXU3()
	bad2.DynamicWatts = 0
	if err := bad2.Validate(); err == nil {
		t.Fatal("zero dynamic watts accepted")
	}
}

func TestLatencyRoofline(t *testing.T) {
	m := NewModel(Profile{
		Name: "toy", GopsPeak: 1, BandwidthGBs: 1,
		StaticWatts: 0.1, DynamicWatts: 1,
	})
	// Compute-bound: 2 Gop at 1 Gop/s with negligible bytes → 2 s.
	lat := m.Latency(imgproc.Cost{Ops: 2e9, Bytes: 1})
	if math.Abs(lat-2) > 1e-9 {
		t.Fatalf("compute-bound latency %v", lat)
	}
	// Memory-bound: 3 GB at 1 GB/s with negligible ops → 3 s.
	lat = m.Latency(imgproc.Cost{Ops: 1, Bytes: 3e9})
	if math.Abs(lat-3) > 1e-9 {
		t.Fatalf("memory-bound latency %v", lat)
	}
}

func TestEnergyScalesWithVoltage(t *testing.T) {
	p := OdroidXU3()
	nominal := NewModel(p)
	low, err := nominal.AtPoint("low")
	if err != nil {
		t.Fatal(err)
	}
	c := imgproc.Cost{Ops: 1e9, Bytes: 1e6}
	eN := nominal.Energy(c)
	eL := low.Energy(c)
	// The low point takes longer but burns less energy overall because
	// dynamic power drops with f·V².
	if eL >= eN {
		t.Fatalf("low OPP should save energy: %v vs %v", eL, eN)
	}
	if low.Latency(c) <= nominal.Latency(c) {
		t.Fatal("low OPP should be slower")
	}
}

func TestAtPointUnknown(t *testing.T) {
	m := NewModel(OdroidXU3())
	if _, err := m.AtPoint("warp9"); err == nil {
		t.Fatal("unknown point accepted")
	}
	pts := m.Points()
	if len(pts) != 4 || pts[0] != "perf" {
		t.Fatalf("points %v", pts)
	}
}

func TestExecuteFrameDeadline(t *testing.T) {
	m := NewModel(Profile{
		Name: "toy", GopsPeak: 1, BandwidthGBs: 100,
		StaticWatts: 0.5, DynamicWatts: 2,
	})
	period := 1.0 / 30
	// Light frame: 10 Mop → 10 ms < 33 ms.
	light := m.ExecuteFrame(imgproc.Cost{Ops: 1e7}, period)
	if !light.MetDeadline {
		t.Fatalf("light frame missed deadline: %+v", light)
	}
	// Power must be below full tilt thanks to race-to-idle.
	if light.Power >= 2.5 || light.Power <= 0.5 {
		t.Fatalf("light frame power %v out of (0.5, 2.5)", light.Power)
	}
	// Heavy frame: 100 Mop → 100 ms > 33 ms.
	heavy := m.ExecuteFrame(imgproc.Cost{Ops: 1e8}, period)
	if heavy.MetDeadline {
		t.Fatal("heavy frame met deadline")
	}
	// At full utilisation power approaches static+dynamic.
	if math.Abs(heavy.Power-2.5) > 0.2 {
		t.Fatalf("heavy frame power %v, want ≈2.5", heavy.Power)
	}
	if heavy.Latency <= light.Latency {
		t.Fatal("heavy frame not slower")
	}
}

func TestExecuteFrameEnergyAccountsIdle(t *testing.T) {
	m := NewModel(Profile{
		Name: "toy", GopsPeak: 1, BandwidthGBs: 100,
		StaticWatts: 1, DynamicWatts: 1,
	})
	period := 0.1
	// Zero-work frame: energy ≈ static × period.
	st := m.ExecuteFrame(imgproc.Cost{}, period)
	if math.Abs(st.Energy-0.1) > 1e-9 {
		t.Fatalf("idle energy %v", st.Energy)
	}
	if math.Abs(st.Power-1) > 1e-9 {
		t.Fatalf("idle power %v", st.Power)
	}
}

func TestFrameOverheadDominatesTinyFrames(t *testing.T) {
	p := OdroidXU3()
	m := NewModel(p)
	tiny := m.ExecuteFrame(imgproc.Cost{Ops: 1000}, 1.0/30)
	if tiny.Latency < p.FrameOverheadSec {
		t.Fatalf("overhead not applied: %v", tiny.Latency)
	}
}

func TestFPS(t *testing.T) {
	if got := FPS(0.05); math.Abs(got-20) > 1e-9 {
		t.Fatalf("FPS %v", got)
	}
	if FPS(0) != 0 {
		t.Fatal("FPS(0) should be 0")
	}
}

func TestXU3DefaultVsTunedShape(t *testing.T) {
	// Calibration guard: a default-config-sized frame (≈270 Mop /
	// 190 MB) must be far from real-time, a tuned-sized frame (≈15 Mop /
	// 15 MB) must be comfortably real-time at the nominal point.
	m := NewModel(OdroidXU3())
	defaultCost := imgproc.Cost{Ops: 270e6, Bytes: 190e6}
	tunedCost := imgproc.Cost{Ops: 15e6, Bytes: 15e6}
	fDefault := FPS(m.ExecuteFrame(defaultCost, 1.0/30).Latency)
	fTuned := FPS(m.ExecuteFrame(tunedCost, 1.0/30).Latency)
	if fDefault > 15 {
		t.Fatalf("default config too fast on XU3 model: %v FPS", fDefault)
	}
	if fTuned < 30 {
		t.Fatalf("tuned config below real time on XU3 model: %v FPS", fTuned)
	}
}

// TestRunWindow pins the run-level rule on a toy device: latencies and
// energies sum, power divides by n sensor periods while the device keeps
// up and by the busy time once it falls behind, and only frames within
// the period meet the deadline.
func TestRunWindow(t *testing.T) {
	m := NewModel(Profile{
		Name: "toy", GopsPeak: 1, BandwidthGBs: 1,
		StaticWatts: 1, DynamicWatts: 1,
	})
	fast := imgproc.Cost{Ops: 0.5e9} // 0.5 s busy, 1 J + 0.5 J idle
	slow := imgproc.Cost{Ops: 3e9}   // 3 s busy, 6 J

	keepsUp := Run{Model: m, Period: 1}
	keepsUp.Execute(fast)
	keepsUp.Execute(fast)
	if got, want := keepsUp.Stats(), (RunStats{MeanLatency: 0.5, TotalEnergy: 3, MeanPower: 1.5, RealTimeFraction: 1}); got != want {
		t.Fatalf("run within its periods: %+v, want %+v", got, want)
	}

	behind := Run{Model: m, Period: 1}
	behind.Execute(fast)
	if st := behind.Execute(slow); st.MetDeadline {
		t.Fatal("3 s frame met a 1 s deadline")
	}
	if got, want := behind.Stats(), (RunStats{MeanLatency: 1.75, TotalEnergy: 7.5, MeanPower: 7.5 / 3.5, RealTimeFraction: 0.5}); got != want {
		t.Fatalf("run behind its periods: %+v, want %+v", got, want)
	}

	if got := (&Run{Model: m, Period: 1}).Stats(); got != (RunStats{}) {
		t.Fatalf("empty run: %+v", got)
	}
}
