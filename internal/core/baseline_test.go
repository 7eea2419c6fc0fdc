package core

import (
	"testing"

	"slamgo/internal/dataset"
)

func TestRunBaseline(t *testing.T) {
	scale := QuickScale()
	scale.Frames = 12
	seq := render(t, scale)
	fig1, err := RunFig1(seq)
	if err != nil {
		t.Fatal(err)
	}
	odo, err := RunBaseline(seq)
	if err != nil {
		t.Fatal(err)
	}
	kf := fig1.Summary
	if kf.TrackedFraction < 0.9 {
		t.Fatalf("kfusion lost tracking: %v", kf.TrackedFraction)
	}
	if odo.TrackedFraction < 0.9 {
		t.Fatalf("odometry lost tracking: %v", odo.TrackedFraction)
	}
	// The odometry baseline carries no mapping cost, so it must be
	// cheaper per frame on the device model.
	if odo.SimMeanLatency >= kf.SimMeanLatency {
		t.Fatalf("odometry (%v) not cheaper than kfusion (%v)",
			odo.SimMeanLatency, kf.SimMeanLatency)
	}
}

func TestRunBaselineBadSequence(t *testing.T) {
	scale := QuickScale()
	scale.KT = 9
	if _, err := scale.Sequence(); err == nil {
		t.Fatal("invalid kt accepted")
	}
	if _, err := RunBaseline(&dataset.MemorySequence{SeqName: "empty"}); err == nil {
		t.Fatal("empty sequence accepted")
	}
}
