package kfusion

import (
	"fmt"
	"time"

	"slamgo/internal/camera"
	"slamgo/internal/icp"
	"slamgo/internal/imgproc"
	"slamgo/internal/math3"
	"slamgo/internal/tsdf"
)

// Kernel identifies one pipeline stage for cost accounting.
type Kernel int

// Pipeline stages, in execution order.
const (
	KernelPreprocess Kernel = iota
	KernelTrack
	KernelIntegrate
	KernelRaycast
	kernelCount
)

// String implements fmt.Stringer.
func (k Kernel) String() string {
	switch k {
	case KernelPreprocess:
		return "preprocess"
	case KernelTrack:
		return "track"
	case KernelIntegrate:
		return "integrate"
	case KernelRaycast:
		return "raycast"
	}
	return fmt.Sprintf("kernel(%d)", int(k))
}

// FrameResult reports everything the benchmarking harness needs about one
// processed frame.
type FrameResult struct {
	Index   int
	Pose    math3.SE3
	Tracked bool
	// Attempted is false when the tracking rate skipped this frame.
	Attempted bool
	// Integrated records whether the frame was fused into the volume.
	Integrated bool
	// ICP carries the tracker diagnostics of the last (finest) level.
	ICP icp.Result
	// KernelCosts holds the per-stage arithmetic cost.
	KernelCosts [4]imgproc.Cost
	// KernelTimes holds the per-stage wall-clock time of this process.
	KernelTimes [4]time.Duration
}

// TotalCost sums the per-kernel costs.
func (r *FrameResult) TotalCost() imgproc.Cost {
	var c imgproc.Cost
	for _, k := range r.KernelCosts {
		c.Add(k)
	}
	return c
}

// TotalTime sums the per-kernel wall times.
func (r *FrameResult) TotalTime() time.Duration {
	var t time.Duration
	for _, k := range r.KernelTimes {
		t += k
	}
	return t
}

// Pipeline is the stateful KinectFusion system.
type Pipeline struct {
	cfg     Config
	inFull  camera.Intrinsics // sensor resolution
	in      camera.Intrinsics // compute resolution (after size ratio)
	volume  *tsdf.Volume
	pose    math3.SE3
	hasRef  bool
	ref     icp.Reference
	frameNo int
	// pool recycles every per-frame map (pyramid depths, vertex/normal
	// maps, raycast buffers) so the steady state allocates nothing. Reset
	// keeps it, with the volume and the ICP solver's scratch, for the
	// next simulation.
	pool   *imgproc.BufferPool
	solver icp.Solver
	// front is the run's memo of depth pyramids when the pipeline came
	// from Pipelines.Get; nil preprocesses every frame itself.
	front *frontMemo
	// frame holds the current frame's maps between preprocess and
	// release.
	frame preprocessed
	// integratedSinceRaycast counts integrations since the last model
	// raycast, for the rendering-rate knob.
	integratedSinceRaycast int
	failures               int
}

// New builds a pipeline for a sensor with the given intrinsics, starting
// from initialPose (camera-to-world of the first frame).
func New(cfg Config, sensor camera.Intrinsics, initialPose math3.SE3) (*Pipeline, error) {
	p := &Pipeline{}
	if err := p.Reset(cfg, sensor, initialPose); err != nil {
		return nil, err
	}
	return p, nil
}

// Reset turns p into the pipeline New(cfg, sensor, initialPose) would
// build: an empty volume, no tracking reference, frame 0. It keeps the
// volume's storage when it holds cfg's res³ voxels (see
// tsdf.Volume.Resize) and the per-frame buffer pool, so a simulation
// that reuses a pipeline allocates no volume. An invalid cfg or sensor
// leaves p unchanged.
func (p *Pipeline) Reset(cfg Config, sensor camera.Intrinsics, initialPose math3.SE3) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if err := sensor.Validate(); err != nil {
		return err
	}
	compute := sensor.ScaledTo(
		sensor.Width/cfg.ComputeSizeRatio,
		sensor.Height/cfg.ComputeSizeRatio,
	)
	if compute.Width < 8 || compute.Height < 8 {
		return fmt.Errorf("kfusion: compute resolution %dx%d too small", compute.Width, compute.Height)
	}
	origin := cfg.VolumeCenter.Sub(math3.Splat3(cfg.VolumeSize / 2))
	if p.volume == nil {
		p.volume, p.pool = &tsdf.Volume{}, &imgproc.BufferPool{}
	}
	p.volume.Resize(cfg.VolumeResolution, cfg.VolumeSize, origin)
	p.pool.PutVertex(p.ref.Vertices)
	p.pool.PutNormal(p.ref.Normals)
	*p = Pipeline{
		cfg:    cfg,
		inFull: sensor,
		in:     compute,
		volume: p.volume,
		pose:   initialPose,
		pool:   p.pool,
		solver: p.solver,
	}
	return nil
}

// Config returns the active configuration.
func (p *Pipeline) Config() Config { return p.cfg }

// Pose returns the current camera-to-world estimate.
func (p *Pipeline) Pose() math3.SE3 { return p.pose }

// Volume exposes the reconstruction for rendering and mesh export.
func (p *Pipeline) Volume() *tsdf.Volume { return p.volume }

// ComputeIntrinsics returns the post-downsampling intrinsics.
func (p *Pipeline) ComputeIntrinsics() camera.Intrinsics { return p.in }

// TrackingFailures counts frames whose ICP was rejected.
func (p *Pipeline) TrackingFailures() int { return p.failures }

// Reference returns the current model raycast (world-frame vertex and
// normal maps) used as the tracking reference, and whether one exists
// yet. The GUI renders this as its 3D model pane.
//
// The returned maps are owned by the pipeline's buffer pool: they stay
// valid until the next ProcessFrame or Reset call, which may recycle
// them. Hold them across frames only via a deep copy.
func (p *Pipeline) Reference() (icp.Reference, bool) { return p.ref, p.hasRef }

// ProcessFrame runs the full pipeline on one depth image (at sensor
// resolution) and returns the per-frame result.
func (p *Pipeline) ProcessFrame(depth *imgproc.DepthMap) (*FrameResult, error) {
	if depth.Width != p.inFull.Width || depth.Height != p.inFull.Height {
		return nil, fmt.Errorf("kfusion: frame is %dx%d, sensor is %dx%d",
			depth.Width, depth.Height, p.inFull.Width, p.inFull.Height)
	}
	res := &FrameResult{Index: p.frameNo}

	// --- Preprocess: downsample, denoise, pyramid, vertex/normal maps.
	// Every map the pipeline draws lives in the buffer pool and is
	// recycled once the frame is done.
	t0 := time.Now()
	pyr := &p.frame
	cost := p.preprocess(pyr, depth)
	defer p.release(pyr)
	res.KernelCosts[KernelPreprocess] = cost
	res.KernelTimes[KernelPreprocess] = time.Since(t0)

	first := p.frameNo == 0

	// --- Track.
	if !first && p.hasRef && p.frameNo%p.cfg.TrackingRate == 0 {
		res.Attempted = true
		t0 = time.Now()
		tracked, icpRes, cost := p.track(pyr)
		res.KernelCosts[KernelTrack] = cost
		res.KernelTimes[KernelTrack] = time.Since(t0)
		res.ICP = icpRes
		res.Tracked = tracked
		if tracked {
			p.pose = icpRes.Pose
		} else {
			p.failures++
		}
	} else if first || p.hasRef {
		// First frame (defines the map) or a frame skipped by the
		// tracking rate (pose deliberately reused): not lost. A frame
		// with no model reference at all stays untracked.
		res.Tracked = true
	}
	res.Pose = p.pose

	// --- Integrate.
	shouldIntegrate := p.frameNo%p.cfg.IntegrationRate == 0 && (res.Tracked || first)
	if shouldIntegrate {
		t0 = time.Now()
		c := p.volume.Integrate(pyr.depth[0], p.pose, p.in, p.cfg.Mu, p.cfg.MaxWeight)
		res.KernelCosts[KernelIntegrate] = c
		res.KernelTimes[KernelIntegrate] = time.Since(t0)
		res.Integrated = true
		p.integratedSinceRaycast++
	}

	// --- Raycast the model to refresh the tracking reference.
	if res.Integrated && (p.integratedSinceRaycast >= p.cfg.RenderingRate || !p.hasRef) {
		t0 = time.Now()
		// Recycle the outgoing reference maps (nil on the first raycast)
		// and march into fresh pool buffers — steady state ping-pongs
		// between the same two map pairs.
		p.pool.PutVertex(p.ref.Vertices)
		p.pool.PutNormal(p.ref.Normals)
		verts := p.pool.Vertex(p.in.Width, p.in.Height)
		norms := p.pool.Normal(p.in.Width, p.in.Height)
		rc := p.volume.RaycastInto(verts, norms, p.pose, p.in, p.cfg.Mu, 0.1, p.cfg.VolumeSize*1.8)
		res.KernelCosts[KernelRaycast] = rc.Cost
		res.KernelTimes[KernelRaycast] = time.Since(t0)
		p.ref = icp.Reference{
			Vertices: rc.Vertices,
			Normals:  rc.Normals,
			Pose:     p.pose,
			Intr:     p.in,
		}
		p.hasRef = true
		p.integratedSinceRaycast = 0
	}

	p.frameNo++
	return res, nil
}

// preprocessed holds the multi-scale maps of the current frame: the
// first levels of its depth pyramid and the vertex and normal maps of
// each.
type preprocessed struct {
	pyramid
	levels   int
	vertices [maxLevels]*imgproc.VertexMap
	normals  [maxLevels]*imgproc.NormalMap
	// shared marks a pyramid read from the run's memo: its depth maps
	// are the memo's and never go back to the pool.
	shared bool
}

// preprocess fills pp from the depth image and returns the front end's
// cost. The depth pyramid comes from the run's memo when there is one
// with room, else the pipeline builds it; the cost is the same either
// way, so every frame is charged its front end.
func (p *Pipeline) preprocess(pp *preprocessed, depth *imgproc.DepthMap) imgproc.Cost {
	levels := p.cfg.pyramidLevels()
	if shared := p.front.get(depth, &p.cfg, p.pool); shared != nil {
		pp.pyramid, pp.shared = *shared, true
	} else {
		pp.build(depth, &p.cfg, levels, p.pool, p.pool)
	}
	pp.levels = levels

	var total imgproc.Cost
	for l := 0; l < levels; l++ {
		d := pp.depth[l]
		total.Add(pp.cost[l])
		in := p.in.Downsample(l)
		vm := p.pool.Vertex(d.Width, d.Height)
		total.Add(imgproc.DepthToVertexMapInto(vm, d, in.BackProject))
		nm := p.pool.Normal(d.Width, d.Height)
		total.Add(imgproc.VertexToNormalMapInto(nm, vm))
		pp.vertices[l], pp.normals[l] = vm, nm
	}
	return total
}

// release returns one frame's scratch maps to the pool and clears pp.
// A pipeline-built pyramid's depth maps all originate from the pool
// (level 0 is the bilateral output, never the caller's input), as do
// the vertex and normal maps; a memo pyramid's stay with the memo.
func (p *Pipeline) release(pp *preprocessed) {
	for l := 0; l < pp.levels; l++ {
		if !pp.shared {
			p.pool.PutDepth(pp.depth[l])
		}
		p.pool.PutVertex(pp.vertices[l])
		p.pool.PutNormal(pp.normals[l])
	}
	*pp = preprocessed{}
}

// track runs coarse-to-fine ICP against the model reference.
func (p *Pipeline) track(pyr *preprocessed) (bool, icp.Result, imgproc.Cost) {
	var total imgproc.Cost
	pose := p.pose
	var last icp.Result
	ran := false
	for level := pyr.levels - 1; level >= 0; level-- {
		iters := p.cfg.PyramidIterations[level]
		if iters <= 0 {
			continue
		}
		params := icp.Params{
			MaxIterations:        iters,
			ConvergenceThreshold: p.cfg.ICPThreshold,
			DistThreshold:        p.cfg.ICPDistThreshold,
			NormalThreshold:      p.cfg.ICPNormalThreshold,
			Damping:              1e-6,
		}
		frame := icp.Frame{Vertices: pyr.vertices[level], Normals: pyr.normals[level]}
		r := p.solver.Solve(p.ref, frame, pose, params)
		total.Add(r.Cost)
		pose = r.Pose
		last = r
		ran = true
	}
	if !ran {
		return false, last, total
	}

	// Quality gate: reject divergent or under-constrained tracks.
	finest := pyr.vertices[0]
	minInliers := int(p.cfg.MinInlierFraction * float64(finest.Width*finest.Height))
	if last.RMSE > p.cfg.TrackRMSEThreshold || last.Inliers < minInliers {
		return false, last, total
	}
	return true, last, total
}
