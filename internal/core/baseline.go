package core

import (
	"slamgo/internal/dataset"
	"slamgo/internal/device"
	"slamgo/internal/odometry"
	"slamgo/internal/slambench"
)

// RunBaseline benchmarks the E6 baseline system, frame-to-frame ICP
// odometry, on seq over the XU3 model. E6 sets it beside RunFig1's
// KinectFusion run of the same sequence on the same model: the
// "comparison across algorithms" role of SLAMBench.
func RunBaseline(seq dataset.Sequence) (*slambench.Summary, error) {
	runner := &slambench.Runner{Model: device.NewModel(device.OdroidXU3())}
	return runner.Run(slambench.NewOdometry(odometry.DefaultConfig(), seq), seq)
}
