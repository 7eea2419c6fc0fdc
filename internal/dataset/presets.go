package dataset

import (
	"fmt"
	"math"

	"slamgo/internal/camera"
	"slamgo/internal/math3"
	"slamgo/internal/sdf"
	"slamgo/internal/synth"
)

// PresetOptions scale the built-in sequences so tests, examples and the
// full benchmark harness can trade fidelity for wall-clock time.
type PresetOptions struct {
	// Width/Height of the rendered frames (default 320×240).
	Width, Height int
	// Frames in the sequence (default 120).
	Frames int
	// FPS of the virtual sensor (default 30).
	FPS float64
	// Noisy applies the Kinect noise model (default true via NewPreset*).
	Noisy bool
	// Seed for the noise stream.
	Seed int64
	// WithRGB also renders shaded colour frames (for the GUI panes).
	WithRGB bool
}

// TestPresetOptions returns a fast low-resolution profile for unit tests.
func TestPresetOptions() PresetOptions {
	return PresetOptions{Width: 80, Height: 60, Frames: 12, FPS: 30, Noisy: false, Seed: 42}
}

func (o PresetOptions) fill() PresetOptions {
	if o.Width == 0 {
		o.Width = 320
	}
	if o.Height == 0 {
		o.Height = 240
	}
	if o.Frames == 0 {
		o.Frames = 120
	}
	if o.FPS == 0 {
		o.FPS = 30
	}
	return o
}

func (o PresetOptions) noise() synth.NoiseModel {
	if o.Noisy {
		return synth.KinectNoise()
	}
	return synth.NoNoise()
}

// LivingRoomKT builds the four built-in living-room sequences, analogues
// of ICL-NUIM's lr/kt0..kt3 trajectories:
//
//	kt0: gentle quarter orbit around the room centre,
//	kt1: wider half orbit sweeping the sofa and table,
//	kt2: waypoint path dollying towards the shelf,
//	kt3: slow orbit with height change (the hardest for drift).
func LivingRoomKT(kt int, opts PresetOptions) (*MemorySequence, error) {
	opts = opts.fill()
	in := camera.Kinect640().ScaledTo(opts.Width, opts.Height)
	var traj []synth.TimedPose
	switch kt {
	case 0:
		traj = synth.Orbit(math3.V3(0, 0.7, -0.6), 1.6, 1.4, math.Pi/3, math.Pi/2, opts.Frames, opts.FPS)
	case 1:
		traj = synth.Orbit(math3.V3(-0.4, 0.6, -0.2), 1.9, 1.5, math.Pi/6, math.Pi, opts.Frames, opts.FPS)
	case 2:
		eyes := []math3.Vec3{
			{X: -0.8, Y: 1.4, Z: 1.6},
			{X: 0.2, Y: 1.3, Z: 0.8},
			{X: 0.9, Y: 1.2, Z: -0.2},
		}
		targets := []math3.Vec3{
			{X: 0.5, Y: 0.8, Z: -1.6},
			{X: 1.0, Y: 0.9, Z: -2.0},
			{X: 1.6, Y: 0.9, Z: -2.3},
		}
		traj = synth.Waypoints(eyes, targets, opts.Frames, opts.FPS)
	case 3:
		n := opts.Frames
		traj = synth.Orbit(math3.V3(0, 0.8, -0.4), 1.7, 1.2, -math.Pi/4, 2*math.Pi/3, n, opts.FPS)
		// Add a slow vertical bob to stress rotation estimation.
		for i := range traj {
			u := float64(i) / float64(max(n-1, 1))
			eye := traj[i].Pose.T
			eye.Y += 0.25 * math.Sin(2*math.Pi*u)
			traj[i].Pose = synth.LookAt(eye, math3.V3(0, 0.8, -0.4))
		}
	default:
		return nil, fmt.Errorf("dataset: unknown kt sequence %d (want 0-3)", kt)
	}
	return Generate(SynthConfig{
		Name:       fmt.Sprintf("lr_kt%d_syn", kt),
		Scene:      sdf.LivingRoom(),
		Trajectory: traj,
		Intrinsics: in,
		Noise:      opts.noise(),
		Seed:       opts.Seed,
		WithRGB:    opts.WithRGB,
	})
}

// OfficeKT builds the office-room sequences (the ICL-NUIM "office"
// analogue): kt0 orbits the desks, kt1 dollies along the room towards
// the bookshelf.
func OfficeKT(kt int, opts PresetOptions) (*MemorySequence, error) {
	opts = opts.fill()
	in := camera.Kinect640().ScaledTo(opts.Width, opts.Height)
	var traj []synth.TimedPose
	switch kt {
	case 0:
		traj = synth.Orbit(math3.V3(0, 0.8, -1.4), 1.8, 1.5, math.Pi/4, 2*math.Pi/3, opts.Frames, opts.FPS)
	case 1:
		eyes := []math3.Vec3{
			{X: 1.6, Y: 1.4, Z: 1.6},
			{X: 0.2, Y: 1.3, Z: 0.9},
			{X: -1.0, Y: 1.2, Z: 0.6},
		}
		targets := []math3.Vec3{
			{X: -0.5, Y: 0.9, Z: -2.0},
			{X: -1.5, Y: 1.0, Z: -0.5},
			{X: -2.3, Y: 1.0, Z: 0.8},
		}
		traj = synth.Waypoints(eyes, targets, opts.Frames, opts.FPS)
	default:
		return nil, fmt.Errorf("dataset: unknown office sequence %d (want 0-1)", kt)
	}
	return Generate(SynthConfig{
		Name:       fmt.Sprintf("of_kt%d_syn", kt),
		Scene:      sdf.Office(),
		Trajectory: traj,
		Intrinsics: in,
		Noise:      opts.noise(),
		Seed:       opts.Seed,
		WithRGB:    opts.WithRGB,
	})
}
