package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"slamgo/internal/campaign"
	"slamgo/internal/serve"
	"slamgo/internal/slambench"
)

// spec is a campaign on the given scenarios × the campaign-smoke
// devices at quick scale. Each active round makes one model-guided
// pick: larger batches make every second pick the most uncertain
// configuration, which lands on the space's most expensive corners
// and makes campaign time swing with the seed. Everything else is the
// CLI default: no fidelity ladders, no transfer.
func spec(seed int64, randomSamples, activeRounds int, scenarios ...string) serve.CampaignSpec {
	return serve.CampaignSpec{
		Scenarios:         scenarios,
		Devices:           []string{"odroid-xu3", "pixel-adreno530"},
		Quick:             true,
		Seed:              seed,
		RandomSamples:     randomSamples,
		ActiveIterations:  activeRounds,
		BatchPerIteration: 1,
		Workers:           workers,
	}
}

// warmSpec is the warm workload's campaign. Its timed phase runs no
// simulation: its time is the optimizer's rounds, so it takes few
// random samples (the fill's cost) and many cheap model-guided rounds.
func warmSpec(seed int64) serve.CampaignSpec { return spec(seed, 10, 5, "lr_kt0", "of_kt0") }

// prepare resolves spec the way the CLI and the service do and points
// the campaign at fresh store directories under dir.
func prepare(spec serve.CampaignSpec, dir string) (campaign.Options, error) {
	spec.Normalize()
	opts, err := spec.Options()
	if err != nil {
		return campaign.Options{}, err
	}
	opts.EvalCacheDir = filepath.Join(dir, "evalcache")
	opts.SeqCacheDir = filepath.Join(dir, "seqcache")
	for _, d := range []string{opts.EvalCacheDir, opts.SeqCacheDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return campaign.Options{}, err
		}
	}
	return opts, nil
}

// reportBytes are a campaign report in the three formats the CLI and
// the service render.
type reportBytes struct{ json, csv, table []byte }

func render(rep *slambench.CampaignReport) (reportBytes, error) {
	var j, c, t bytes.Buffer
	if err := slambench.WriteCampaignJSON(&j, rep); err != nil {
		return reportBytes{}, err
	}
	if err := slambench.WriteCampaignCSV(&c, rep); err != nil {
		return reportBytes{}, err
	}
	if err := slambench.WriteCampaignTable(&t, rep); err != nil {
		return reportBytes{}, err
	}
	return reportBytes{j.Bytes(), c.Bytes(), t.Bytes()}, nil
}

func (r reportBytes) equal(o reportBytes) error {
	for _, f := range []struct {
		name string
		a, b []byte
	}{{"json", r.json, o.json}, {"csv", r.csv, o.csv}, {"table", r.table, o.table}} {
		if !bytes.Equal(f.a, f.b) {
			return fmt.Errorf("%s reports differ", f.name)
		}
	}
	return nil
}

// inRun is one in-process campaign.
type inRun struct {
	dur   time.Duration
	res   *campaign.Result
	rep   *slambench.CampaignReport
	bytes reportBytes
	alloc uint64 // bytes allocated during the campaign (traced runs)
	gcs   uint32
	pause uint64
}

// runCampaign times campaign.Run until the report is available and
// applies the per-campaign output check. A traced run also records the
// campaign's progress events as campaign, stage and cell spans.
func runCampaign(e *env, opts campaign.Options, traced bool, v values) (inRun, error) {
	var evs []progress
	var root *spanRef
	var ms0 runtime.MemStats
	if traced {
		opts.OnProgress = func(ev campaign.ProgressEvent) { evs = append(evs, progress{time.Now(), ev}) }
		runtime.ReadMemStats(&ms0)
		root = e.tr.root("campaign", 0)
	}
	start := time.Now()
	res, err := campaign.Run(opts)
	if err != nil {
		return inRun{}, fmt.Errorf("campaign: %w", err)
	}
	rep := res.Report()
	end := time.Now()
	r := inRun{dur: end.Sub(start), res: res, rep: rep}
	if traced {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		r.alloc, r.gcs, r.pause = ms1.TotalAlloc-ms0.TotalAlloc, ms1.NumGC-ms0.NumGC, ms1.PauseTotalNs-ms0.PauseTotalNs
		stageLayer(root, start, evs, workers, v)
		root.endAt(root.t.at(end))
	}
	if err := checkReport(rep); err != nil {
		return r, checkError{err}
	}
	if r.bytes, err = render(rep); err != nil {
		return r, err
	}
	return r, nil
}

// countCampaign adds a finished campaign and its cells to the
// operation accounting.
func countCampaign(o *ops, r inRun) {
	o.record(nil)
	for _, c := range r.rep.Cells {
		var err error
		if c.Failed {
			err = fmt.Errorf("cell failed")
		}
		o.record(err)
	}
}

// timedLoop repeats op until the run's measuring time is used up: it
// stops before an iteration that, at the last iteration's duration,
// would overrun. It always runs at least once.
func timedLoop(budget time.Duration, op func(i int) (time.Duration, error)) error {
	start := time.Now()
	var last time.Duration
	for i := 0; i == 0 || time.Since(start)+last <= budget; i++ {
		d, err := op(i)
		if err != nil {
			return err
		}
		last = d
	}
	return nil
}

// campaignValues fills the end-to-end metrics of a set of campaign
// durations (s) and evaluation rates (1/s), and the report metrics.
func campaignValues(v values, durs, rates []float64, rep *slambench.CampaignReport) {
	v["campaign_s"] = median(durs)
	v["campaign_p90_s"] = percentile(durs, 90)
	v["evals_per_s"] = median(rates)
	v["campaigns"] = float64(len(durs))
	v["report.front_hv"], v["report.robust_ms"] = reportQuality(rep)
}

func evalRate(r inRun) float64 {
	return float64(r.res.EvalStats.Simulations+r.res.EvalStats.DiskHits) / r.dur.Seconds()
}

// warmCampaign fills the stores with one cold campaign during set-up,
// then repeats the same campaign against them back to back: every
// repetition must simulate nothing and render the set-up run's bytes.
func warmCampaign(e *env) (values, ops, error) {
	v := values{}
	var o ops
	t := time.Now()
	opts, err := prepare(warmSpec(e.seed), filepath.Join(e.work, "warm"))
	if err != nil {
		return v, o, err
	}
	fill, err := runCampaign(e, opts, false, values{})
	if err != nil {
		return v, o, err
	}
	countCampaign(&o, fill)
	v["setup_s"] = time.Since(t).Seconds()

	debug.FreeOSMemory()
	var untraced, traced []inRun
	var peaks []float64
	stageVals := map[string][]float64{}
	err = timedLoop(e.seconds, func(i int) (time.Duration, error) {
		// A traced run alternates traced and untraced repetitions, so
		// both see the same conditions.
		tr := e.trace && i%2 == 1
		sv := values{}
		// Peak RSS per repetition: one repetition's peak depends on where
		// the collector's cycle falls, the median over all of them does
		// not.
		if err := resetPeakRSS(0); err != nil {
			return 0, err
		}
		r, err := runCampaign(e, opts, tr, sv)
		if err != nil {
			return 0, err
		}
		peak, err := peakRSSMB(0)
		if err != nil {
			return 0, err
		}
		peaks = append(peaks, peak)
		countCampaign(&o, r)
		if n := r.res.EvalStats.Simulations; n != 0 {
			return 0, checkf("warm repetition %d simulated %d configurations", i, n)
		}
		if err := r.bytes.equal(fill.bytes); err != nil {
			return 0, checkf("warm repetition %d: %v", i, err)
		}
		if tr {
			traced = append(traced, r)
			for k, x := range sv {
				stageVals[k] = append(stageVals[k], x)
			}
		} else {
			untraced = append(untraced, r)
		}
		return r.dur, nil
	})
	if err != nil {
		return v, o, err
	}
	v["peak_rss_mb"] = median(peaks)
	var durs, rates []float64
	for _, r := range untraced {
		durs = append(durs, r.dur.Seconds())
		rates = append(rates, evalRate(r))
	}
	campaignValues(v, durs, rates, fill.rep)

	if e.trace {
		if len(traced) == 0 {
			// The measuring time fitted one repetition; trace one more.
			r, err := runCampaign(e, opts, true, values{})
			if err != nil {
				return v, o, err
			}
			countCampaign(&o, r)
			traced = append(traced, r)
		}
		var tdurs []float64
		var alloc, gcs, pause float64
		for _, r := range traced {
			tdurs = append(tdurs, r.dur.Seconds())
			alloc += float64(r.alloc)
			gcs += float64(r.gcs)
			pause += float64(r.pause)
		}
		for k, xs := range stageVals {
			v[k] = median(xs)
		}
		v["trace.overhead_frac"] = median(tdurs)/median(durs) - 1
		runtimeLayer(v, alloc, gcs, pause)
		memoLayer(fill.res, v)
		if err := traceReplica(e, opts, fill.res, v); err != nil {
			return v, o, err
		}
		if v["core.sims"] != 0 {
			return v, o, checkf("the replica simulated %g configurations against the filled store", v["core.sims"])
		}
	}
	return v, o, nil
}

// runtimeLayer records Go runtime activity over the traced phase.
func runtimeLayer(v values, allocBytes, gcs, pauseNs float64) {
	v["runtime.alloc_gb"] = allocBytes / 1e9
	v["runtime.gc_count"] = gcs
	v["runtime.gc_pause_ms"] = pauseNs / 1e6
}

// traceReplica runs the replica of the campaign's Explore cells against
// the stores opts names, checks it reproduces res's fronts, and records
// the layer metrics below the stage.
func traceReplica(e *env, opts campaign.Options, res *campaign.Result, v values) error {
	root := e.tr.root("replica", 10)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	store, fronts, err := replica(root, opts)
	runtime.ReadMemStats(&m1)
	root.end()
	if err != nil {
		return err
	}
	var spans []span
	for _, s := range e.tr.snapshot() {
		if s.trace == root.trace {
			spans = append(spans, s)
		}
	}
	replicaLayer(spans, float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20), store, v)
	// Which layer dominates the replica's cell time.
	v["design.sim_share"] = ratio(v["core.sim_busy_s"], v["replica.cell_s"])
	v["design.optimizer_share"] = ratio(v["hypermapper.self_s"], v["replica.cell_s"])
	if err := checkFronts(res.Cells, fronts); err != nil {
		return checkError{err}
	}
	return nil
}
