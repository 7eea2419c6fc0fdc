package kfusion

import (
	"slices"
	"sync"

	"slamgo/internal/camera"
	"slamgo/internal/math3"
)

// Pipelines is a free list of idle pipelines. A run that simulates many
// configurations draws each simulation's pipeline from it with Get and
// hands the pipeline back with Put, so the run resets volumes instead of
// allocating one per simulation (135 MB at 256³).
//
// The list holds only pipelines Put gave back, so it never holds more
// idle pipelines than the run had simulations in flight at once. Get
// takes the idle pipeline with the smallest volume that holds the
// request; when none does, it drops every idle pipeline (each is
// smaller) before allocating.
//
// The list also holds the run's memo of preprocessed frames. Every
// pipeline Get hands out reads a frame's bilateral-filtered depth
// pyramid, and its cost, from the memo instead of filtering the frame
// again; the first simulation to reach a frame builds it. Entries are
// keyed on the input depth map's identity and on every Config field the
// front end reads (ComputeSizeRatio, BilateralRadius,
// BilateralSpatialSigma, BilateralRangeSigma, PyramidDiscontinuity), so
// the frame results, costs included, are bit for bit those of a
// pipeline from New. The memo keeps its input maps alive and stops
// growing at frontMemoMaxBytes (64 MiB); later frames are preprocessed
// per simulation.
//
// The list's owner bounds the storage's lifetime: drop the list when the
// run ends and the volumes and the memo go with it. The zero value is an
// empty list, safe for concurrent use. A nil *Pipelines reuses nothing:
// Get allocates, Put discards, and every frame is preprocessed anew.
type Pipelines struct {
	mu    sync.Mutex
	idle  []*Pipeline
	front frontMemo
}

// Get returns a pipeline in the state New(cfg, sensor, initialPose)
// builds, reusing an idle one when its volume holds cfg's grid. The
// pipeline preprocesses frames through the list's memo.
func (l *Pipelines) Get(cfg Config, sensor camera.Intrinsics, initialPose math3.SE3) (*Pipeline, error) {
	if l == nil {
		return New(cfg, sensor, initialPose)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := l.take(cfg.VolumeResolution)
	if p == nil {
		var err error
		if p, err = New(cfg, sensor, initialPose); err != nil {
			return nil, err
		}
	} else if err := p.Reset(cfg, sensor, initialPose); err != nil {
		l.Put(p)
		return nil, err
	}
	p.front = &l.front
	return p, nil
}

// take removes and returns the idle pipeline with the smallest volume of
// at least res³ voxels, or drops every idle pipeline and returns nil.
func (l *Pipelines) take(res int) *Pipeline {
	n := res * res * res
	l.mu.Lock()
	defer l.mu.Unlock()
	best := -1
	for i, p := range l.idle {
		if c := cap(p.volume.D); c >= n && (best < 0 || c < cap(l.idle[best].volume.D)) {
			best = i
		}
	}
	if best < 0 {
		clear(l.idle)
		l.idle = l.idle[:0]
		return nil
	}
	p := l.idle[best]
	l.idle = slices.Delete(l.idle, best, best+1)
	return p
}

// Put gives p back for a later Get. The caller must not use p again.
func (l *Pipelines) Put(p *Pipeline) {
	if l == nil || p == nil {
		return
	}
	l.mu.Lock()
	l.idle = append(l.idle, p)
	l.mu.Unlock()
}
