package slambench

import (
	"testing"

	"slamgo/internal/sdf"
)

func TestReconstructionError(t *testing.T) {
	// Build a reconstruction of the simple room and compare against the
	// true scene SDF.
	seq := testSeq(t, 8)
	sys := NewKFusion(testKFConfig(), seq)
	if _, err := (&Runner{}).Run(sys, seq); err != nil {
		t.Fatal(err)
	}
	mesh := sys.Pipeline().Volume().ExtractMesh()
	if len(mesh.Triangles) == 0 {
		t.Fatal("no mesh")
	}
	scene := sdf.SimpleRoom()
	st, err := ReconstructionError(mesh, scene, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if st.Vertices == 0 {
		t.Fatal("no samples")
	}
	// The surface must be reconstructed to within a few voxels
	// (voxel ≈ 7 cm at 64³ over 4.5 m).
	if st.Median > 0.08 {
		t.Fatalf("median surface error %v m", st.Median)
	}
	if st.Mean <= 0 || st.Max < st.Median || st.P95 < st.Median {
		t.Fatalf("inconsistent stats: %+v", st)
	}
}

func TestReconstructionErrorValidation(t *testing.T) {
	scene := sdf.SimpleRoom()
	if _, err := ReconstructionError(nil, scene, 0); err == nil {
		t.Fatal("nil mesh accepted")
	}
}

func TestReconstructionSamplingBound(t *testing.T) {
	seq := testSeq(t, 4)
	sys := NewKFusion(testKFConfig(), seq)
	if _, err := (&Runner{}).Run(sys, seq); err != nil {
		t.Fatal(err)
	}
	mesh := sys.Pipeline().Volume().ExtractMesh()
	scene := sdf.SimpleRoom()
	st, err := ReconstructionError(mesh, scene, 100)
	if err != nil {
		t.Fatal(err)
	}
	if st.Vertices > 350 { // stride rounding gives some slack
		t.Fatalf("sampling bound ignored: %d", st.Vertices)
	}
}
