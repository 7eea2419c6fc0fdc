// Package slamgo is a from-scratch Go reproduction of "Algorithmic
// Performance-Accuracy Trade-off in 3D Vision Applications" (Bodin,
// Nardi, Wagstaff, Kelly, O'Boyle — ISPASS 2018): the SLAMBench
// benchmarking methodology around a complete KinectFusion dense-SLAM
// pipeline, the HyperMapper machine-learning design-space exploration of
// its algorithmic parameters, and the mobile-device performance study.
//
// The implementation lives under internal/, one package per layer of the
// system. cmd/experiments regenerates every experiment (E1–E7) and
// writes the measured-vs-paper report (`go run ./cmd/experiments -quick
// -o report.md`); the benchmarks in bench_test.go regenerate every
// figure-level experiment.
//
// # Concurrency model
//
// All parallelism flows through internal/parallel, a bounded worker pool
// over contiguous index chunks with two invariants: chunk boundaries
// depend only on the problem size (never on the worker count), and
// per-chunk partial results merge serially in ascending chunk order.
// Workers race only over which chunk they pull next, so every
// floating-point reduction — ICP normal equations, raycast step counts,
// surrogate predictions — is bit-identical whether the host has 1 core
// or 64.
//
// The DSE engine (internal/hypermapper) evaluates its Latin-hypercube
// seeding phase and each active-learning batch concurrently through a
// ParallelEvaluator, scores the candidate pool in parallel chunks, and
// fits the random-forest surrogate's trees concurrently (each tree's
// RNG is seeded by a serial pre-draw). Batches are selected first on
// the surrogate's optimistic estimates, then evaluated in parallel and
// appended in selection order. The result: a seeded Optimize run yields
// a byte-identical Result — every observation and the final Pareto
// front — for any setting of the Workers knob (OptimizerConfig.Workers
// and rf.ForestConfig.Workers; 0 means GOMAXPROCS, 1 is fully serial;
// cmd/experiments exposes it as -workers).
//
// # Surrogate inference and the evaluation ladder
//
// Surrogate inference runs on rf.FlatForest, a structure-of-arrays
// compilation of the fitted pointer forest: contiguous
// feature/threshold/left/right/value slices (plus a packed 16-byte
// walk mirror with leaf values folded in and preorder-implicit left
// children), predicted through allocation-free PredictInto /
// PredictWithStdInto and a PredictBatch that fans rows across
// internal/parallel with the usual fixed-chunk determinism. The
// optimizer samples each round's candidate pool straight into a reused
// row-major matrix, deduplicates against the evaluated set with binary
// point keys (hypermapper.AppendKey; map probes allocate nothing), and
// scores the whole pool with one batched prediction per objective — an
// active-learning round allocates a few buffers instead of a hundred
// thousand tree-walk temporaries, and tree fitting itself grows nodes
// from a preallocated arena with in-place index partitions.
//
// Repeated measurements are cut by two opt-in layers. A
// hypermapper.MemoEvaluator content-addresses Metrics by the exact
// binary encoding of the point, so any configuration re-sampled across
// phases (active batches, random-only baselines, headline re-runs) is
// simulated once. A hypermapper.MultiFidelity batch evaluator —
// plugged into OptimizerConfig.BatchEval by core.Simulator.Explore
// (ExploreOptions.FidelityStride) over slambench.Subsample — screens
// every batch candidate on a frame-subsampled sequence and promotes
// only the top-ranked fraction to full-fidelity runs; both rungs are
// memoized and the promotion ranking breaks ties by batch position, so
// the ladder keeps the workers-independence guarantee
// (cmd/experiments exposes it as -mf-stride and -mf-promote; stride ≤ 1
// leaves every run at full fidelity).
// Budget accounting is denominated in full-fidelity simulations: the
// same-budget random baseline of RunFig2 receives exactly as many full
// runs as the ladder promoted (MultiFidelity.Stats), never one per
// observation — low-fidelity screening runs are cheaper by the stride
// and must not inflate the baseline's simulation budget. The
// feasibility constraint (hypermapper.AccuracyLimit) is fidelity-aware
// for the same reason: a subsampled measurement's optimistic ATE never
// certifies a configuration. MemoEvaluator coalesces concurrent misses
// on the same key (per-key singleflight), so two workers racing on one
// configuration run a single pipeline simulation and Stats counts true
// misses only.
//
// # Simulation cost
//
// A configuration is simulated once per sequence, and every device
// number is a replay of its trace. core.Simulate runs the pipeline and
// returns a core.Trace: each frame's imgproc.Cost, the max ATE and the
// tracked share, none of which depends on the device. Trace.Replay
// turns the trace into latency, energy and power on one device model
// through device.Run, the one home of the run-level rule (mean latency,
// total energy, power over max(n·period, busy time), the share of
// frames that met the deadline) that slambench.Runner uses for live
// runs too. So the headline replays E1's default run and simulates the
// tuned configuration once, replaying it at each XU3 operating point,
// Fig. 3 replays the headline's two traces on 83 phones, and the
// decision machine simulates each candidate once; core.Evaluate is a
// simulation replayed on one model. The figure path renders its
// sequence once: every core.Run* entry point takes the rendered
// dataset.Sequence, and cmd/experiments passes each experiment's work
// on (E4 replays E1's trace, E5 replays E4's traces, E6 sets its
// odometry run beside E1's KinectFusion run).
//
// One simulation (a configuration run over a sequence, core.Evaluate) is
// the unit every exploration pays for, and five mechanisms keep it
// cheap without changing a bit of its result. TSDF integration
// (tsdf.Volume.Integrate) clips each x-row of voxels to the span that
// can project into the image: the near plane and the four image edges,
// multiplied through by depth, are linear inequalities along the row;
// each edge is widened by one pixel and the span by one voxel, and only
// voxels inside the span run the per-voxel test. The ray-caster
// (tsdf.Volume.RaycastInto) ends a march early once a sample lies
// outside the interpolable box on an axis the ray moves away from: each
// coordinate of the ray is monotone in t under IEEE rounding, so no later
// sample can succeed, and the remaining coarse steps are still counted.
// Both kernels are pinned bit for bit to the plain versions kept as test
// references in internal/tsdf. The imgproc.Cost a kernel returns, which
// the device model turns into latency and energy, models the reference
// kernel (every voxel; every step of the full march), not the work this
// process did. Finally, a core.Simulator reuses pipelines: each
// simulation draws one from a kfusion.Pipelines free list, which resets
// (kfusion.Pipeline.Reset) a volume that holds the requested grid
// instead of allocating a 256³ volume (135 MB) per simulation. The list
// keeps at most one idle pipeline per simulation that ran concurrently,
// and it lives only as long as its run: campaign.Run and core.RunFig2
// each scope one Simulator to the call, so no volume outlives the run
// and no package-level pool holds one.
//
// The same list shares each frame's depth front end (downsample,
// bilateral filter, half-sample pyramid) across the run's simulations.
// Of the DSE's parameters only the compute size ratio reaches the front
// end, so a frame has at most four distinct pyramids in a run, and the
// list computes each of them once. The list's memo holds each
// frame's three-level float32 pyramid with a Cost per level, keyed on
// the input depth map's identity (the sequence cache gives every cell of
// a scenario the same in-memory sequence, and slambench.Subsample hands
// out its base sequence's frames) and on every Config field the front
// end reads: ComputeSizeRatio, BilateralRadius, BilateralSpatialSigma,
// BilateralRangeSigma and PyramidDiscontinuity. A configuration with
// fewer pyramid levels reads a prefix, as level l is built from level
// l−1 alone. The first simulation to reach an entry builds it once
// (sync.Once); the rest wait for it and then only read. Vertex and
// normal maps are still built per frame in the pipeline's buffer pool,
// and memo maps never enter a pool. Each frame still returns its full
// preprocess Cost, so the device model charges every simulated frame
// for its front end. The memo lives and dies with its list; it keeps its
// input maps alive and stops growing at 64 MiB (about 3.4 MB per
// quick-scale scene, 34 MB per default-scale one), after which frames
// are preprocessed per simulation. kfusion.New, a nil list and so
// core.Evaluate preprocess every frame themselves.
//
// Last, the ray-caster answers observed free space without
// interpolating. A tsdf.Volume keeps one free bit per voxel, set exactly
// when the voxel's weight is positive and its TSDF value is exactly 1
// (observed, truncated free space); Integrate recomputes the bit of
// every voxel it writes, and Reset and Resize clear them all. The
// trilinear sampler behind RaycastInto, its normals, SampleRelaxed and
// Gradient returns 1 for a cell whose eight bits are set before it reads
// any voxel. That is bit for bit the interpolation's own result: each
// corner adds the same weight product w to the value sum (as 1.0·w,
// exact) and to the weight sum, in the same order, so the two sums are
// equal, the weight sum is about 1 and their quotient is exactly 1. The
// march, its step count and so the raycast Cost are unchanged. In
// campaignbench's served-campaign spec close to 60% of the ray-caster's
// samples take this path.
// The bits cost one uint64 word per 64 voxels, each z-plane padded to a
// whole word so Integrate's parallel z-slabs never share one: 2 MiB at
// 256³, beside the 134 MB of TSDF values and weights.
//
// # Campaign engine: staged and resumable
//
// internal/campaign replays the whole methodology across scenarios and
// devices at once — the paper tunes per scene and per device, and the
// campaign engine makes that a single orchestrated run. A scenario
// registry enumerates scene × trajectory × resolution × noise cells
// (the living-room kt0–kt3 and office kt0–kt1 analogues, via
// core.Scale) crossed with device targets (the ODROID-XU3, the desktop
// comparator, or named picks from the phone catalogue via
// phones.ByName), in fixed scenario-major order.
//
// A campaign runs as a staged job model — Plan → Explore →
// CrossMeasure → Aggregate — where every stage consumes and emits
// serialisable per-cell artifacts. Explore runs Fig. 2's constrained
// exploration, core.Simulator.Explore, per cell (sharded over
// internal/parallel, memoized, with the multi-fidelity ladder when
// -mf-stride is set); CrossMeasure re-measures every
// cell's best feasible and leading front members in every other cell
// at full fidelity; Aggregate picks the cross-scenario robust
// configuration with hypermapper.RobustBest — feasible in all cells
// first, then minimum worst-case per-cell rank, then rank sum — which
// quantifies the paper's "one configuration does not fit all scenes"
// point.
//
// With -campaign-store the artifacts persist: one versioned JSON file
// per cell per stage in the store root (campaign.Store, the
// JSON-envelope codec over the shared store described below), which
// also holds the rendered-sequence cache in <root>/seqcache and the
// evaluation store in <root>/evalcache. Artifacts are named by the
// stage kind, the grid index and a content hash of the cell spec, the
// seed and the options that determine the artifact's bytes. A killed
// campaign rerun with -campaign-resume loads completed cells instead of
// re-simulating them (a changed option hashes differently and simply
// misses the stale artifact; a format change bumps the store version
// and orphans everything). Worker count is excluded from the hash —
// results are bit-identical for any Workers value — so a campaign
// interrupted under -workers 1 resumes under -workers 8, and an
// interrupted-then-resumed campaign renders a byte-identical report to
// an uninterrupted one (floats round-trip JSON exactly; resumption
// provenance goes to stderr via slambench.WriteCampaignProvenance, not
// into the report). `make campaign-resume-smoke` enforces exactly that
// in CI: run, stop after Explore, resume, diff against an uninterrupted
// run.
//
// The checkpoint store doubles as a coordination substrate for
// multi-process campaigns. With -campaign-worker-id, N processes (or
// machines over a shared filesystem) pointing at one -campaign-store
// root execute a single campaign's grid cooperatively: a worker claims
// a cell by atomically creating the artifact's .lease sibling (a
// complete record hard-linked into place, carrying its id and a
// heartbeat it renews while computing), re-checks the store once it
// holds the lease (a peer may have just published), peers waiting on a
// claimed cell poll with deterministic backoff until the artifact
// appears, and a lease whose heartbeat exceeds -campaign-lease-ttl is
// reclaimed — so any worker can be SIGKILLed at any instant without
// losing the campaign. Leases are a work-distribution optimisation,
// never a correctness mechanism: artifact names are content hashes,
// every writer of a name produces identical bytes, and writes are
// atomic (temp file + rename), so a takeover racing a slow-but-alive
// holder just computes the cell twice and the last rename wins. Store
// I/O is wrapped in bounded retry-with-backoff (transient ENOSPC/EIO
// cost milliseconds, not a crash), a Load distinguishes a miss —
// absent, torn or corrupt artifact, safe to recompute — from a real I/O
// fault that must surface, and a cell whose exploration panics is
// quarantined into a persisted failed artifact (a failed row in the
// report; the campaign aggregates the survivors) instead of killing the
// run. `make campaign-distributed-smoke` enforces the end-to-end claim
// in CI: two worker processes share a store, one is SIGKILLed mid-run,
// and the survivor's report must be byte-identical to an uninterrupted
// single-process run.
//
// # One store, three codecs
//
// The checkpoints, the rendered-sequence cache and the evaluation
// store below are one content-addressed store (sharedfs.Store) with
// three codecs: JSON envelopes in flat "<name>.json" files, "SQC1"
// frames in flat "<key>.seq" files, and "EVR1" records sharded as
// "<2hex>/<key>.evr". The store owns everything they share — directory
// open and debris sweep, verified loads and atomic saves on the bounded
// retry ladder, deterministic eviction under a size cap, the one fault
// injector the crash-safety suites drive (sharedfs.FaultPlan) — and the
// one compute-once ladder: load, else acquire the key's lease,
// re-check, and compute and publish under a heartbeat released even if
// the computation panics, else back off and reload. Only the poll
// bound differs by caller: the caches give up on a wedged holder after
// 600 polls and compute inline, campaign cells wait as long as the
// holder heartbeats and honour cancellation on every turn.
//
// # Rendered-sequence cache
//
// Rendering a synthetic input sequence dominates a cell's startup, and
// a campaign grid re-renders the same sequence once per cell — in
// worker mode once per cell per process. internal/seqcache removes
// that: a content-addressed, crash-safe artifact store shared by every
// cell of a campaign and by cooperating worker processes. The key is
// core.Scale.CacheKey, a hash over every input that determines the
// rendered frames (scene, trajectory, resolution, frame count, noise
// flag, seed, a format version) — two scales render identical
// sequences exactly when their keys collide, so "look up by key" is
// the whole consistency protocol. Artifacts are a versioned binary
// encoding of the frames (raw float32 depth, raw float64 poses —
// nothing quantised, so a cached campaign's report is byte-identical
// to an uncached one) with an embedded sha256 checksum, written
// atomically (temp file + rename) and verified on every load.
//
// Reads degrade down a strict ladder, and no rung is ever fatal to the
// campaign: an in-process memory hit, else a checksum-verified disk
// hit, else render-and-publish under the shared store's lease ladder
// (one renderer per key per store; peers poll with bounded backoff, a
// dead renderer's lease is reclaimed after its TTL, a wedged one is
// abandoned after a bounded number of polls), else —
// when the cache directory is unusable, the disk is full, or a fault
// persists past the bounded retries — plain inline rendering, exactly
// what an uncached run does. Every data defect (absent, truncated,
// bit-flipped, version-mismatched or misfiled artifact) is a silent
// miss that the next render repairs in place; only real I/O faults
// ride the retry ladder, and exhausting it costs a log line and a
// degradation counter, never the run. Cache provenance (renders, disk
// hits, memory hits, degradations, evictions, and each cell's
// sequence source) rides the stderr provenance table next to the
// resume columns — the deterministic report surface never sees it.
//
// cmd/experiments keeps the cache in <root>/seqcache of the
// -campaign-store root, so workers sharing a root share renders.
// Without a store the cache still deduplicates renders in-process
// (cells sharing a scenario share one immutable in-memory sequence).
// -campaign-store-max-mb bounds it, and the evaluation store beside it,
// with deterministic lexicographic eviction. Stale temp files and
// orphaned leases are swept on open, as for every codec of the shared
// store. `make campaign-cache-smoke` enforces the end-to-end claim in
// CI: two processes share a store root, one is SIGKILLed and one
// artifact is corrupted in place mid-run, and the survivor's report
// must still diff clean against an uncached run.
//
// The multi-fidelity ladder (-mf-stride, -mf-promote) is the campaign's
// one multi-fidelity mechanism: it screens each batch on a
// stride-subsampled sequence and runs only the batch's most promising
// share at full fidelity, so every
// cell's front, best configuration and decision rules rest on
// full-fidelity runs (the report's fid column reads "full"), and the
// robust aggregation cross-measures every candidate at full fidelity.
//
// # Cross-cell transfer learning
//
// The grid's cells are correlated — the same scene on another device,
// the same device on another scene — and with -campaign-transfer the
// campaign exploits that instead of exploring every cell from scratch.
// The mechanism is a pluggable seeding/prior layer on the optimizer
// itself: OptimizerConfig.Seeder generates the random-phase
// configurations (the default LHSSeeder is golden-tested byte-identical
// to the historical inline Latin hypercube, so a nil Seeder is never a
// behaviour change) and OptimizerConfig.Prior blends cross-run
// surrogate knowledge into acquisition scores at a weight that decays
// as local evidence accumulates. Both are strictly advisory: donor
// knowledge informs where the borrower samples, it never enters the
// borrower's observation log, Pareto front or best pick, because
// metrics are workload- and device-specific. Donor observations are
// filtered through hypermapper.FullObservations — failed and
// low-fidelity measurements can never seed a prior, act as warm-start
// donors, or preload a full-fidelity memo.
//
// At campaign scale the Explore stage becomes two waves. Wave 1 runs
// the grid-diagonal anchor cells (scenario i anchors at target i mod
// nTargets) exactly as a transfer-off campaign would — same seeds, same
// artifact names — so every process holds each anchor's observation log
// in its exploration artifact (computed, or loaded on resume) before
// wave 2 starts. Wave 2 runs every remaining cell as a borrower
// warm-started from a fixed donor set (its same-scenario anchor first,
// then its same-device anchors): donor front winners are
// interleaved round-robin into a hypermapper.WarmStartSeeder that
// spends most of a slashed seeding budget (TransferSeeds, default 3)
// on exact donor replays and clamped neighbourhood draws, and the
// pooled donor logs fit a hypermapper.ForestPrior (per-donor min-max
// normalised, so a phone and a desktop contribute comparable
// landscapes). The freed budget funds one extra model-guided
// active-learning round when the total still clears the 20% savings
// bar against a from-scratch cell. The determinism contract survives
// intact: the wave topology, budgets and donor content are pure
// functions of the options and seed, so a transfer campaign's report is
// bit-identical for any -workers value and across cooperating
// processes, borrowers key their artifacts on the donor topology while
// anchors keep their pre-transfer names (a transfer-off campaign
// resumes a transfer-on store's anchors and vice versa), and a
// quarantined anchor degrades its borrowers to exploring from scratch
// rather than poisoning them. `make campaign-transfer-smoke` enforces
// the acceptance bar in CI: the transfer-off report diffs byte-for-byte
// against the pre-transfer golden, and cmd/campaigncmp requires every
// warm-started borrower to spend at least 20% fewer full-fidelity
// simulations at an equal-or-better shared-reference hypervolume.
//
// # Persistent evaluation store
//
// A configuration's simulated metrics are a pure function of the
// configuration, the rendered sequence, the device model and the
// sampling stride — so once any process anywhere has simulated a
// point, no process should ever simulate it again.
// internal/evalstore is that memory: a persistent, content-addressed
// result store that backs hypermapper's in-process memoisation
// (MemoEvaluator consults a ResultTier on memory miss) with a disk
// tier shared across workers, runs and campaigns. The key is a sha256
// over the canonical point encoding (hypermapper.AppendKey — ±0
// normalised, NaN rejected, prefix-free, ordinals by index) plus a
// scope prefix naming everything else that determines the result: the
// scenario's core.Scale.CacheKey, the device profile, the sampling
// stride and a format version. Records are small versioned binaries
// with an embedded sha256, written atomically (temp file + rename)
// into fan-out shards; failed evaluations persist as failed records
// (the evaluator's verdict is deterministic), while low-fidelity
// results are never published and never satisfy a lookup — the stride
// in the key is the fidelity firewall.
//
// Lookups walk the same never-fatal ladder as the sequence cache — the
// same code, sharedfs.Store.Fetch: in-process memo hit, else checksum-verified disk hit, else
// simulate-and-publish under a per-key lease (one simulator per
// configuration per store; peers poll, dead holders are reclaimed
// after the TTL), else plain inline simulation. Data defects are
// silent misses repaired by one re-simulation and re-publish; real
// I/O faults ride the bounded sharedfs retry ladder and then degrade.
// The instrumentation hook sits under the store, so a disk hit is
// never counted — or priced — as a simulation, and the store's
// counters (simulations, disk hits, published, degradations,
// evictions) plus the memo's hit/miss totals ride the stderr
// provenance table; -campaign-cache-stats additionally embeds them,
// with the sequence-cache counters, as a "caches" object in the JSON
// report. The default report surface stays byte-identical between
// cached, uncached and any-worker-count runs.
//
// cmd/experiments keeps the store in <root>/evalcache of the
// -campaign-store root. campaign.Options.UseCacheRoot owns that layout,
// and a dseserve data directory has the same one, so a CLI run pointed
// at a server's data directory shares the server's results.
// -campaign-store-max-mb bounds each cache of the root with
// deterministic eviction; checkpoints are never evicted, and bounding a
// run that has no store is a flag error, caught before the campaign
// starts. `make campaign-evalcache-smoke` enforces the claim end-to-end
// in CI: a warm re-run of a cold campaign must simulate nothing while
// rendering a byte-identical report, and a record corrupted in place
// must be silently repaired by exactly one re-simulation.
//
// # Campaign service
//
// cmd/dseserve is the long-running face of the engine: an HTTP
// service (internal/serve) that runs campaigns as durable jobs.
// POST /campaigns submits a JSON campaign.Spec, the same spec
// cmd/experiments binds to its flags: Spec.Normalize fills the one set
// of defaults both front-ends share (a zero field means the default, a
// negative one is a 400), Spec.Options validates it by the same
// fail-fast Options.Validate path before any simulation, and Spec.ID
// content-addresses it (worker count excluded), so resubmitting a spec
// joins the existing job instead of starting a twin. GET
// /campaigns/{id} serves status and per-cell progress, GET
// /campaigns/{id}/events streams stage/cell transitions as SSE (an
// append-only frame log replays history to late subscribers, then
// follows live), GET /campaigns/{id}/report serves the table/CSV/JSON
// renderings of the slambench writers, POST /campaigns/{id}/cancel
// stops a job cooperatively, and /debug/pprof/* exposes the standard
// profiling surface.
//
// The shared-cache topology is the point: a bounded job pool runs
// every campaign through the same staged runner as the CLI, with all
// jobs sharing one evalstore and one seqcache under the server's data
// directory — concurrent tenants never re-simulate or re-render each
// other's work — while each job checkpoints into its own
// campaign.Store using the worker-lease protocol. Campaign progress
// flows out through campaign.Options.OnProgress (stage and cell
// events emitted by the staged runner) and cancellation flows in
// through Options.Cancel: a closed channel stops the campaign at the
// next stage or cell boundary with ErrCanceled, after in-flight cells
// finish and checkpoint.
//
// Drain semantics distinguish a user cancel from a shutdown. Cancel
// writes a marker file into the job directory before closing the
// cancel channel, so the job lands in a permanent canceled state that
// survives restarts (resubmitting the spec revives it). SIGTERM drain
// closes the same channel without a marker: the job ends this process
// as interrupted, and the next boot re-enqueues it to resume from its
// checkpoints — `make serve-smoke` proves the restarted server's
// report is byte-identical to the CLI's with the evalstore counters
// showing no repeated simulation. The steady-state request path
// (status and report reads) is allocation-free: a frozen linear-scan
// router, per-job cached renderings refreshed only on state change,
// pooled response writers and an append-formatted access log, pinned
// at zero allocs/op by the Kernel_Serve* benchmarks under the bench
// gate.
//
// The frame kernels are allocation-free in the steady state: an
// imgproc.BufferPool (sync.Pool-backed, one pool per map size) recycles
// every per-frame depth/vertex/normal map, the bilateral filter's
// spatial Gaussian is precomputed once per (radius, sigma), and
// kfusion.Pipeline ping-pongs its raycast reference between two pooled
// map pairs. The depth/vertex/normal Into-variants of the kernels
// (BilateralFilterInto, DepthToVertexMapInto, ...) overwrite every
// destination pixel, so recycled buffers behave exactly like fresh
// allocations; RaycastInto is the exception — it writes only hit
// pixels and requires all-invalid maps, which BufferPool.Vertex/Normal
// provide by clearing masks on reuse.
package slamgo
