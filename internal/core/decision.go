package core

import (
	"errors"
	"fmt"
	"math/rand"

	"slamgo/internal/device"
	"slamgo/internal/kfusion"
	"slamgo/internal/phones"
	"slamgo/internal/rf"
)

// The paper closes with its plan to "train a decision machine for mobile
// phones" from the crowdsourced data: a model that, given a device,
// recommends the KinectFusion configuration to run. This file implements
// that future-work item over the simulated phone catalogue.

// CandidateConfig is one configuration the decision machine may
// recommend, with a short display name.
type CandidateConfig struct {
	Name   string
	Config kfusion.Config
}

// DefaultCandidates spans the quality/cost ladder the DSE typically
// surfaces: from "maximum quality" (the stock configuration) down to a
// minimal mapping load for entry-level hardware.
func DefaultCandidates() []CandidateConfig {
	mk := func(name string, vr, csr, ir int) CandidateConfig {
		cfg := kfusion.DefaultConfig()
		cfg.VolumeResolution = vr
		cfg.ComputeSizeRatio = csr
		cfg.IntegrationRate = ir
		return CandidateConfig{Name: name, Config: cfg}
	}
	return []CandidateConfig{
		mk("quality", 256, 2, 1),
		mk("balanced", 128, 2, 2),
		mk("fast", 128, 4, 2),
		mk("minimal", 64, 4, 3),
	}
}

// DeviceChoice records the recommendation for one device.
type DeviceChoice struct {
	Device string
	Year   int
	// Choice indexes the candidate list; -1 when no candidate sustains
	// tracking-quality requirements on the device.
	Choice int
	// FPS of the chosen configuration on the device.
	FPS float64
}

// DecisionMachine is the trained recommender plus its training data.
type DecisionMachine struct {
	Candidates []CandidateConfig
	// MaxATE of each candidate (device-independent, measured once).
	CandidateATE []float64
	Choices      []DeviceChoice
	// Tree maps device features to a candidate index.
	Tree *rf.ClassificationTree
	// Rules are the tree's readable decision rules over device features.
	Rules []rf.Rule
	// TrainAccuracy is the tree's accuracy on the catalogue itself.
	TrainAccuracy float64
}

// deviceFeatures extracts the feature vector the tree learns over.
func deviceFeatures(p device.Profile) []float64 {
	return []float64{p.GopsPeak, p.BandwidthGBs, p.FrameOverheadSec * 1000, float64(p.Year)}
}

// deviceFeatureNames matches deviceFeatures.
func deviceFeatureNames() []string {
	return []string{"gops", "bandwidth_gbs", "overhead_ms", "year"}
}

// RunDecisionMachine simulates each candidate once (accuracy and
// per-frame costs are device-independent), replays the traces on every
// phone to pick its best candidate (fastest meeting the accuracy limit,
// preferring the highest-quality config that still sustains the sensor
// rate), and fits a decision tree over device features.
func RunDecisionMachine(candidates []CandidateConfig, scale Scale, ateLimit float64, seed int64) (*DecisionMachine, error) {
	if len(candidates) < 2 {
		return nil, errors.New("core: decision machine needs ≥2 candidates")
	}
	if ateLimit <= 0 {
		ateLimit = 0.05
	}
	seq, err := scale.Sequence()
	if err != nil {
		return nil, err
	}

	dm := &DecisionMachine{Candidates: candidates}

	// Simulate every candidate once; each device replays the traces.
	traces := make([]Trace, len(candidates))
	ok := make([]bool, len(candidates))
	for i, c := range candidates {
		t, err := Simulate(seq, c.Config)
		if err != nil {
			return nil, fmt.Errorf("core: candidate %q: %w", c.Name, err)
		}
		traces[i] = t
		ok[i] = !t.Failed() && t.MaxATE <= ateLimit
		dm.CandidateATE = append(dm.CandidateATE, t.MaxATE)
	}

	// Per-device choice: among accuracy-feasible candidates, prefer the
	// highest-quality one that sustains 30 FPS; if none does, take the
	// fastest feasible one.
	var X [][]float64
	var y []int
	classNames := make([]string, len(candidates))
	for i, c := range candidates {
		classNames[i] = c.Name
	}
	for _, p := range phones.Catalogue(seed) {
		m := device.NewModel(p)
		best := -1
		bestFPS := 0.0
		// Candidates are ordered from highest to lowest quality.
		for i := range candidates {
			if !ok[i] {
				continue
			}
			lat := traces[i].Replay(m).Runtime
			if lat <= 0 {
				continue
			}
			fps := 1 / lat
			if fps >= 30 {
				best = i
				bestFPS = fps
				break // highest-quality real-time candidate wins
			}
			if fps > bestFPS {
				best = i
				bestFPS = fps
			}
		}
		dm.Choices = append(dm.Choices, DeviceChoice{
			Device: p.Name, Year: p.Year, Choice: best, FPS: bestFPS,
		})
		if best >= 0 {
			X = append(X, deviceFeatures(p))
			y = append(y, best)
		}
	}
	if len(X) < 10 {
		return nil, errors.New("core: too few devices with a feasible candidate")
	}

	tree, err := rf.FitClassification(X, y, classNames,
		rf.TreeConfig{MaxDepth: 3, MinLeaf: 3}, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	dm.Tree = tree
	dm.Rules = tree.Rules(deviceFeatureNames())
	dm.TrainAccuracy = tree.Accuracy(X, y)
	return dm, nil
}

// Recommend returns the candidate index for an arbitrary device profile.
func (dm *DecisionMachine) Recommend(p device.Profile) int {
	return dm.Tree.Predict(deviceFeatures(p))
}
