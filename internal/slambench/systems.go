package slambench

import (
	"fmt"

	"slamgo/internal/dataset"
	"slamgo/internal/imgproc"
	"slamgo/internal/kfusion"
	"slamgo/internal/math3"
	"slamgo/internal/odometry"
)

// KFusionSystem adapts the KinectFusion pipeline to the harness.
type KFusionSystem struct {
	cfg      kfusion.Config
	seq      dataset.Sequence
	pipes    *kfusion.Pipelines
	pipeline *kfusion.Pipeline
}

// NewKFusion prepares a KinectFusion system for a given sequence. The
// pipeline is created lazily on the first frame so the initial pose can
// come from the frame's ground truth (the SLAMBench convention: all
// systems start from the dataset's first pose).
func NewKFusion(cfg kfusion.Config, seq dataset.Sequence) *KFusionSystem {
	return NewKFusionFrom(nil, cfg, seq)
}

// NewKFusionFrom is NewKFusion with the pipeline drawn from pipes (a nil
// list allocates it); Release gives it back.
func NewKFusionFrom(pipes *kfusion.Pipelines, cfg kfusion.Config, seq dataset.Sequence) *KFusionSystem {
	return &KFusionSystem{cfg: cfg, seq: seq, pipes: pipes}
}

// start builds the pipeline at the sequence's first pose.
func (s *KFusionSystem) start() (*kfusion.Pipeline, error) {
	f0, err := s.seq.Frame(0)
	if err != nil {
		return nil, err
	}
	init := math3.SE3Identity()
	if f0.HasGT {
		init = f0.GroundTruth
	}
	return s.pipes.Get(s.cfg, s.seq.Intrinsics(), init)
}

// Release gives the pipeline back to the list it was drawn from. Neither
// the system nor its Pipeline may be used afterwards.
func (s *KFusionSystem) Release() {
	s.pipes.Put(s.pipeline)
	s.pipeline = nil
}

// Name implements System.
func (s *KFusionSystem) Name() string {
	return fmt.Sprintf("kfusion[vr=%d csr=%d mu=%.3f]",
		s.cfg.VolumeResolution, s.cfg.ComputeSizeRatio, s.cfg.Mu)
}

// Pipeline exposes the underlying pipeline after the first frame (nil
// before), for mesh export and inspection.
func (s *KFusionSystem) Pipeline() *kfusion.Pipeline { return s.pipeline }

// Process implements System.
func (s *KFusionSystem) Process(f *dataset.Frame) (FrameOutput, error) {
	if s.pipeline == nil {
		p, err := s.start()
		if err != nil {
			return FrameOutput{}, err
		}
		s.pipeline = p
	}
	r, err := s.pipeline.ProcessFrame(f.Depth)
	if err != nil {
		return FrameOutput{}, err
	}
	kc := make(map[string]imgproc.Cost, 4)
	for k := kfusion.KernelPreprocess; k <= kfusion.KernelRaycast; k++ {
		kc[k.String()] = r.KernelCosts[k]
	}
	return FrameOutput{
		Pose:        r.Pose,
		Tracked:     r.Tracked,
		Cost:        r.TotalCost(),
		KernelCosts: kc,
	}, nil
}

// OdometrySystem adapts the frame-to-frame baseline to the harness.
type OdometrySystem struct {
	cfg     odometry.Config
	tracker *odometry.Tracker
	mk      func() (*odometry.Tracker, error)
}

// NewOdometry prepares the odometry baseline for a sequence.
func NewOdometry(cfg odometry.Config, seq dataset.Sequence) *OdometrySystem {
	s := &OdometrySystem{cfg: cfg}
	s.mk = func() (*odometry.Tracker, error) {
		f0, err := seq.Frame(0)
		if err != nil {
			return nil, err
		}
		init := math3.SE3Identity()
		if f0.HasGT {
			init = f0.GroundTruth
		}
		return odometry.New(cfg, seq.Intrinsics(), init)
	}
	return s
}

// Name implements System.
func (s *OdometrySystem) Name() string {
	return fmt.Sprintf("odometry[csr=%d]", s.cfg.ComputeSizeRatio)
}

// Process implements System.
func (s *OdometrySystem) Process(f *dataset.Frame) (FrameOutput, error) {
	if s.tracker == nil {
		tr, err := s.mk()
		if err != nil {
			return FrameOutput{}, err
		}
		s.tracker = tr
	}
	r, err := s.tracker.ProcessFrame(f.Depth)
	if err != nil {
		return FrameOutput{}, err
	}
	return FrameOutput{
		Pose:    r.Pose,
		Tracked: r.Tracked,
		Cost:    r.Cost,
		KernelCosts: map[string]imgproc.Cost{
			"odometry": r.Cost,
		},
	}, nil
}
