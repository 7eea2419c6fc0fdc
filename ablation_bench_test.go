// Ablation benchmarks for the pipeline's design choices: the ICP
// residual formulation, reconstruction accuracy measurement, mesh
// extraction and the decision machine. The integration-rate ablation's
// outputs are pinned by internal/core's TestSimulationGolden.
package slamgo_test

import (
	"testing"

	"slamgo/internal/core"
	"slamgo/internal/icp"
	"slamgo/internal/imgproc"
	"slamgo/internal/kfusion"
	"slamgo/internal/sdf"
	"slamgo/internal/slambench"
)

// benchICPVariant measures one ICP solve of frame 1 against the model
// reference using either residual formulation.
func benchICPVariant(b *testing.B, pointToPoint bool) {
	seq := sequence(b)
	f0, _ := seq.Frame(0)
	cfg := tunedConfig()
	p, err := kfusion.New(cfg, seq.Intrinsics(), f0.GroundTruth)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := p.ProcessFrame(f0.Depth); err != nil {
		b.Fatal(err)
	}
	ref, ok := p.Reference()
	if !ok {
		b.Fatal("no reference")
	}
	f1, _ := seq.Frame(1)
	work := f1.Depth
	for r := cfg.ComputeSizeRatio; r > 1; r /= 2 {
		work, _ = imgproc.HalfSampleDepth(work, 0.1)
	}
	vm, _ := imgproc.DepthToVertexMap(work, p.ComputeIntrinsics().BackProject)
	nm, _ := imgproc.VertexToNormalMap(vm)
	params := icp.DefaultParams()
	params.PointToPoint = pointToPoint
	params.ConvergenceThreshold = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := icp.Solve(ref, icp.Frame{Vertices: vm, Normals: nm}, f0.GroundTruth, params)
		if res.Inliers == 0 {
			b.Fatal("no inliers")
		}
	}
}

// BenchmarkAblation_ICP_PointToPlane measures the KinectFusion residual.
func BenchmarkAblation_ICP_PointToPlane(b *testing.B) { benchICPVariant(b, false) }

// BenchmarkAblation_ICP_PointToPoint measures the classic residual (three
// rows per correspondence; slower per iteration and slower to converge).
func BenchmarkAblation_ICP_PointToPoint(b *testing.B) { benchICPVariant(b, true) }

// BenchmarkAblation_ReconstructionError measures comparing a mesh against
// the analytic ground-truth scene.
func BenchmarkAblation_ReconstructionError(b *testing.B) {
	seq := sequence(b)
	sys := slambench.NewKFusion(tunedConfig(), seq)
	if _, err := (&slambench.Runner{}).Run(sys, seq); err != nil {
		b.Fatal(err)
	}
	mesh := sys.Pipeline().Volume().ExtractMesh()
	scene := sdf.LivingRoom()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := slambench.ReconstructionError(mesh, scene, 20000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_MeshExtraction measures marching-tetrahedra export.
func BenchmarkAblation_MeshExtraction(b *testing.B) {
	seq := sequence(b)
	sys := slambench.NewKFusion(tunedConfig(), seq)
	if _, err := (&slambench.Runner{}).Run(sys, seq); err != nil {
		b.Fatal(err)
	}
	vol := sys.Pipeline().Volume()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := vol.ExtractMesh()
		if len(m.Triangles) == 0 {
			b.Fatal("empty mesh")
		}
	}
}

// BenchmarkAblation_DecisionMachine measures training the per-device
// configuration recommender (the paper's stated future work).
func BenchmarkAblation_DecisionMachine(b *testing.B) {
	scale := core.QuickScale()
	scale.Frames = 10
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.RunDecisionMachine(core.DefaultCandidates(), scale, 0.1, 42); err != nil {
			b.Fatal(err)
		}
	}
}
