package core

import (
	"testing"

	"slamgo/internal/device"
	"slamgo/internal/phones"
)

func TestRunDecisionMachine(t *testing.T) {
	scale := QuickScale()
	scale.Frames = 12
	dm, err := RunDecisionMachine(DefaultCandidates(), render(t, scale), 0.1, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(dm.Choices) != phones.CatalogueSize {
		t.Fatalf("choices %d", len(dm.Choices))
	}
	if len(dm.Rules) == 0 {
		t.Fatal("no rules")
	}
	if dm.TrainAccuracy < 0.6 {
		t.Fatalf("decision tree accuracy %v", dm.TrainAccuracy)
	}

	// Flagships get richer configurations than entry-level hardware.
	choiceOf := func(name string) int {
		for _, c := range dm.Choices {
			if c.Device == name {
				return c.Choice
			}
		}
		t.Fatalf("device %s missing", name)
		return -1
	}
	slow := choiceOf("galaxy-s3-mali400")
	fast := choiceOf("pixel2-adreno540")
	if slow < 0 || fast < 0 {
		t.Fatalf("no feasible candidate: slow=%d fast=%d", slow, fast)
	}
	// Candidates are ordered quality→minimal, so the flagship's index
	// must not be worse (larger) than the 2012 phone's.
	if fast > slow {
		t.Fatalf("flagship recommended lower quality (%d) than entry phone (%d)", fast, slow)
	}

	// The recommender generalises to an unseen profile: something
	// desktop-class must get the highest-quality feasible config class.
	rec := dm.Recommend(device.DesktopGPU())
	if rec < 0 || rec >= len(dm.Candidates) {
		t.Fatalf("recommendation out of range: %d", rec)
	}
	if rec > fast {
		t.Fatalf("desktop (%d) recommended lower quality than a flagship (%d)", rec, fast)
	}
}

func TestRunDecisionMachineValidation(t *testing.T) {
	if _, err := RunDecisionMachine(nil, nil, 0.05, 1); err == nil {
		t.Fatal("no candidates accepted")
	}
	if _, err := RunDecisionMachine(DefaultCandidates()[:1], nil, 0.05, 1); err == nil {
		t.Fatal("single candidate accepted")
	}
}
