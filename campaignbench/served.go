package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"slamgo/internal/campaign"
	"slamgo/internal/serve"
	"slamgo/internal/slambench"
)

// servedSpec is the served workload's submission: scenario lr_kt0 on
// the two campaign-smoke devices, run by one job worker. Its campaign
// time is simulation work, so it takes many random samples per cell:
// Explore's share then hardly depends on the seed. CrossMeasure's
// does (every cell's winners are measured in every cell), and it grows
// with the square of the cell count: on the 2 × 2 grid it took 6–10 s
// of a campaign, depending on the seed.
func servedSpec(seed int64) serve.CampaignSpec {
	s := spec(seed, 48, 2, "lr_kt0")
	s.Workers = servedWorkers
	return s
}

// servedWorkers runs the served job's cells one at a time, so campaign
// time is the sum of its simulations. With two workers, uneven cells
// left one worker idle at the Explore barrier for a seed-dependent
// 0.3–3 s, and two simulating workers beside the collector and the
// client on two cores made campaign time follow the host's other load.
const servedWorkers = 1

const (
	// pollPeriod is the open-loop status poller's schedule: 20 req/s.
	pollPeriod = 50 * time.Millisecond
	// requestTimeout bounds every non-streaming request; a request that
	// hits it counts as failed and at this latency.
	requestTimeout = 5 * time.Second
	// jobTimeout bounds one served campaign.
	jobTimeout = 150 * time.Second
)

// server is one dseserve child process.
type server struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	data   string
	exited chan struct{}
	log    *os.File
}

// startServer starts dseserve on a loopback ephemeral port with a fresh
// data directory and one job slot, and returns once /healthz answers.
func startServer(bin, dir string) (*server, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	log, err := os.Create(filepath.Join(dir, "dseserve.log"))
	if err != nil {
		return nil, err
	}
	addrFile := filepath.Join(dir, "addr")
	s := &server{data: filepath.Join(dir, "data"), exited: make(chan struct{}), log: log}
	s.cmd = exec.Command(bin, "-addr", "127.0.0.1:0", "-addr-file", addrFile,
		"-data", s.data, "-jobs", "1", "-access-log", "off")
	s.cmd.Stdout, s.cmd.Stderr = log, log
	// If the benchmark dies, the server must not outlive it.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		log.Close()
		return nil, err
	}
	go func() {
		_ = s.cmd.Wait() // the exit status is judged by stop
		close(s.exited)
	}()
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-s.exited:
			s.log.Close()
			return nil, fmt.Errorf("dseserve exited during start-up (log %s)", log.Name())
		default:
		}
		if raw, err := os.ReadFile(addrFile); err == nil && bytes.HasSuffix(raw, []byte("\n")) {
			s.base = "http://" + strings.TrimSpace(string(raw))
			if resp, err := client.Get(s.base + "/healthz"); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return s, nil
				}
			}
		}
		// Poll finely: the poll period bounds the error of setup_s.
		time.Sleep(250 * time.Microsecond)
	}
	s.stop()
	return nil, errors.New("dseserve did not become ready within 30s")
}

// stop drains the server with SIGTERM and waits for it to exit.
func (s *server) stop() {
	defer s.log.Close()
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(30 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
}

// client issues the workload's requests: one keep-alive connection for
// the submission, polls and reports, one for the event stream.
type client struct {
	base string
	api  *http.Client
	sse  *http.Client
	ops  ops
	mu   sync.Mutex // guards ops: the poller and the stream run concurrently
}

func newClient(base string) *client {
	one := func() *http.Transport {
		return &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	}
	return &client{base: base,
		api: &http.Client{Transport: one(), Timeout: requestTimeout},
		sse: &http.Client{Transport: one()}}
}

func (c *client) count(err error) {
	c.mu.Lock()
	c.ops.record(err)
	c.mu.Unlock()
}

// do sends one API request and returns the body of a 2xx response.
func (c *client) do(method, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err == nil && body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	var out []byte
	if err == nil {
		var resp *http.Response
		if resp, err = c.api.Do(req); err == nil {
			out, err = io.ReadAll(resp.Body)
			resp.Body.Close()
			if err == nil && resp.StatusCode/100 != 2 {
				err = fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(out))
			}
		}
	}
	c.count(err)
	return out, err
}

// status is the part of the job status the benchmark reads.
type status struct {
	ID       string `json:"id"`
	State    string `json:"state"`
	Error    string `json:"error"`
	EvalSims int    `json:"eval_simulations"`
	EvalHits int    `json:"eval_disk_hits"`
}

func ended(state string) bool {
	switch state {
	case serve.StateDone, serve.StateFailed, serve.StateCanceled, serve.StateInterrupted:
		return true
	}
	return false
}

// frame is one server-sent event and when it arrived.
type frame struct {
	at    time.Time
	event string
	data  []byte
}

// follow reads the job's event stream until the server ends it (the
// job reached an ended state) or ctx is canceled, and reports each
// frame as it arrives.
func (c *client) follow(ctx context.Context, id string, onFrame func(frame)) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/campaigns/"+id+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := c.sse.Do(req)
	if err != nil {
		c.count(err)
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("event stream: %s", resp.Status)
		c.count(err)
		return err
	}
	rd := bufio.NewReader(resp.Body)
	var cur frame
	for {
		line, rerr := rd.ReadString('\n')
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = []byte(strings.TrimPrefix(line, "data: "))
		case line == "" && cur.event != "":
			cur.at = time.Now()
			onFrame(cur)
			cur = frame{}
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			c.count(rerr)
			return rerr
		}
	}
	c.count(nil)
	return nil
}

// servedRun is one served campaign's measurements.
type servedRun struct {
	setup    time.Duration
	dur      time.Duration // POST until the JSON report arrived
	final    status
	reports  reportBytes
	rep      *slambench.CampaignReport
	peakMB   float64
	polls    []sample
	frames   []frame
	submitMs float64
	reportMs []float64
	queueS   float64
	ckFiles  int
	ckKB     float64
	heap     heapStats
	data     string
	stages   values // campaign.* metrics from the job's progress events
}

// servedOnce starts a fresh server, submits the campaign, follows its
// events and polls its status until it ends, fetches the three report
// formats and stops the server.
func servedOnce(e *env, dir string, traced bool) (servedRun, *client, error) {
	var r servedRun
	t := time.Now()
	srv, err := startServer(filepath.Join(e.root, ".bench_build", "bin", "dseserve"), dir)
	if err != nil {
		return r, nil, err
	}
	defer srv.stop()
	r.setup, r.data = time.Since(t), srv.data
	if err := resetPeakRSS(srv.cmd.Process.Pid); err != nil {
		return r, nil, err
	}
	c := newClient(srv.base)
	body, err := json.Marshal(servedSpec(e.seed))
	if err != nil {
		return r, c, err
	}

	var root *spanRef
	if traced {
		root = e.tr.root("served", 20)
	}
	start := time.Now()
	sub := root.childOn("serve.submit", 22)
	raw, err := c.do(http.MethodPost, "/campaigns", body)
	sub.end()
	if err != nil {
		return r, c, err
	}
	r.submitMs = ms(time.Since(start))
	var st status
	if err := json.Unmarshal(raw, &st); err != nil {
		return r, c, fmt.Errorf("submit response: %w", err)
	}
	polled := time.Now()

	// The stream ends by itself when the job ends; streamCtx cuts it on
	// the paths where the job may not have ended.
	streamCtx, cutStream := context.WithCancel(context.Background())
	defer cutStream()
	var done atomic.Bool
	finished := make(chan struct{})
	var once sync.Once
	finish := func() { once.Do(func() { close(finished) }) }
	var wg sync.WaitGroup
	wg.Add(2)
	var streamErr error
	go func() {
		defer wg.Done()
		defer finish()
		stream := root.childOn("serve.events", 21)
		streamErr = c.follow(streamCtx, st.ID, func(f frame) {
			r.frames = append(r.frames, f)
			if f.event == "state" {
				var s status
				if json.Unmarshal(f.data, &s) == nil && ended(s.State) {
					done.Store(true)
				}
			}
		})
		stream.end()
	}()
	go func() {
		defer wg.Done()
		r.polls = openLoop(realClock{}, polled, pollPeriod, func() error {
			p := root.childOn("serve.status", 20)
			raw, err := c.do(http.MethodGet, "/campaigns/"+st.ID, nil)
			p.end()
			var s status
			if err == nil && json.Unmarshal(raw, &s) == nil && ended(s.State) {
				done.Store(true)
				finish()
			}
			return err
		}, func() bool { return done.Load() || time.Since(start) > jobTimeout })
	}()
	select {
	case <-finished:
	case <-time.After(jobTimeout):
	}

	// The job has ended (or timed out): the report is available now.
	for i, f := range []string{"json", "csv", "table"} {
		t := time.Now()
		rs := root.childOn("serve.report", 22)
		b, err := c.do(http.MethodGet, "/campaigns/"+st.ID+"/report?format="+f, nil)
		rs.end()
		if err != nil {
			done.Store(true)
			cutStream()
			wg.Wait()
			if raw, serr := c.do(http.MethodGet, "/campaigns/"+st.ID, nil); serr == nil &&
				json.Unmarshal(raw, &r.final) == nil && r.final.State != serve.StateDone {
				return r, c, checkf("served campaign ended %s: %s", r.final.State, r.final.Error)
			}
			return r, c, err
		}
		r.reportMs = append(r.reportMs, ms(time.Since(t)))
		switch i {
		case 0:
			r.dur = time.Since(start)
			r.reports.json = b
		case 1:
			r.reports.csv = b
		case 2:
			r.reports.table = b
		}
	}
	done.Store(true)
	wg.Wait()
	if streamErr != nil {
		return r, c, fmt.Errorf("event stream: %w", streamErr)
	}
	if raw, err = c.do(http.MethodGet, "/campaigns/"+st.ID, nil); err != nil {
		return r, c, err
	}
	if err := json.Unmarshal(raw, &r.final); err != nil {
		return r, c, err
	}
	if r.peakMB, err = peakRSSMB(srv.cmd.Process.Pid); err != nil {
		return r, c, err
	}
	if traced {
		if r.heap, err = c.heap(); err != nil {
			return r, c, err
		}
	}
	end := start.Add(r.dur)
	r.ckFiles, r.ckKB, err = dirSize(filepath.Join(srv.data, "jobs", st.ID, "store"))
	if err != nil {
		return r, c, err
	}

	// Job progress: queueing until the running state, then the campaign
	// events the job re-publishes.
	var evs []progress
	for _, f := range r.frames {
		switch f.event {
		case "state":
			var s status
			if json.Unmarshal(f.data, &s) == nil && s.State == serve.StateRunning && r.queueS == 0 {
				r.queueS = f.at.Sub(polled).Seconds()
			}
		case "progress":
			var ev campaign.ProgressEvent
			if err := json.Unmarshal(f.data, &ev); err != nil {
				return r, c, fmt.Errorf("progress event: %w", err)
			}
			evs = append(evs, progress{f.at, ev})
		}
	}
	// Stage and cell spans come from the job's events as the client saw
	// them; Plan is timed from the POST.
	var job *spanRef
	if traced {
		job = root.childAt("serve.job", 23, root.t.at(start))
	}
	r.stages = values{}
	stageLayer(job, start, evs, servedWorkers, r.stages)
	if traced {
		job.endAt(root.t.at(end))
		root.endAt(root.t.at(end))
	}
	if r.final.State != serve.StateDone {
		return r, c, checkf("served campaign ended %s: %s", r.final.State, r.final.Error)
	}
	r.rep = &slambench.CampaignReport{}
	if err := json.Unmarshal(r.reports.json, r.rep); err != nil {
		return r, c, fmt.Errorf("served report: %w", err)
	}
	if err := checkReport(r.rep); err != nil {
		return r, c, checkError{err}
	}
	return r, c, nil
}

// heapStats is the served process's Go runtime activity.
type heapStats struct{ totalAlloc, numGC, pauseNs float64 }

// heap reads the server's runtime.MemStats from its pprof heap profile
// (debug=1 appends them as "# Name = value" lines). The profile lists
// the last 256 GC pauses, not their total; their sum is the total
// while NumGC ≤ 256.
func (c *client) heap() (heapStats, error) {
	raw, err := c.do(http.MethodGet, "/debug/pprof/heap?debug=1", nil)
	if err != nil {
		return heapStats{}, err
	}
	var h heapStats
	for _, line := range strings.Split(string(raw), "\n") {
		name, val, ok := strings.Cut(strings.TrimPrefix(line, "# "), " = ")
		if !ok {
			continue
		}
		if name == "PauseNs" {
			for _, f := range strings.Fields(strings.Trim(val, "[]")) {
				ns, err := strconv.ParseFloat(f, 64)
				if err != nil {
					return heapStats{}, fmt.Errorf("heap profile PauseNs: %w", err)
				}
				h.pauseNs += ns
			}
			continue
		}
		x, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		switch name {
		case "TotalAlloc":
			h.totalAlloc = x
		case "NumGC":
			h.numGC = x
		}
	}
	return h, nil
}

// dirSize counts the regular files under dir and their size in KB.
func dirSize(dir string) (int, float64, error) {
	n, size := 0, int64(0)
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n++
		size += info.Size()
		return nil
	})
	return n, float64(size) / 1024, err
}

// servedCampaign repeats served campaigns, each on a freshly started
// server with an empty data directory, until the measuring time is
// used up; server start-up is the set-up. It ends with an in-process
// replay of the spec against the last server's store, which must
// simulate nothing and render the served bytes.
func servedCampaign(e *env) (values, ops, error) {
	v := values{}
	var o ops
	var runs []servedRun
	var clients []*client
	measure := func(i int, traced bool) (time.Duration, error) {
		r, c, err := servedOnce(e, filepath.Join(e.work, fmt.Sprintf("served%02d", i)), traced)
		if c != nil {
			clients = append(clients, c)
		}
		if err != nil {
			return 0, err
		}
		runs = append(runs, r)
		return r.setup + r.dur, nil
	}
	var err error
	if e.trace {
		if _, err = measure(0, false); err == nil {
			_, err = measure(1, true)
		}
	} else {
		err = timedLoop(e.seconds, func(i int) (time.Duration, error) { return measure(i, false) })
	}
	for _, c := range clients {
		o.add(c.ops)
	}
	if err != nil {
		return v, o, err
	}
	// Extra start-stop cycles so set-up is a median of at least 15.
	var setups []float64
	for _, r := range runs {
		setups = append(setups, r.setup.Seconds())
	}
	for i := len(setups); i < 15; i++ {
		t := time.Now()
		srv, err := startServer(filepath.Join(e.root, ".bench_build", "bin", "dseserve"),
			filepath.Join(e.work, fmt.Sprintf("start%02d", i)))
		if err != nil {
			return v, o, err
		}
		setups = append(setups, time.Since(t).Seconds())
		srv.stop()
	}
	v["setup_s"] = median(setups)
	v["setup_reps"] = float64(len(setups))

	var durs, rates, peaks []float64
	var samples []sample
	for _, r := range runs {
		if err := r.reports.equal(runs[0].reports); err != nil {
			return v, o, checkf("served campaigns with one seed disagree: %v", err)
		}
		durs = append(durs, r.dur.Seconds())
		rates = append(rates, float64(r.final.EvalSims+r.final.EvalHits)/r.dur.Seconds())
		peaks = append(peaks, r.peakMB)
		samples = append(samples, r.polls...)
		o.record(nil) // the campaign
		for range r.rep.Cells {
			o.record(nil)
		}
	}
	campaignValues(v, durs, rates, runs[0].rep)
	v["peak_rss_mb"] = median(peaks)
	final := runs[len(runs)-1]
	load := summariseLoad(samples, requestTimeout)
	v["status_p50_ms"], v["status_p90_ms"] = load.p50ms, load.p90ms

	// The served bytes must equal an in-process run of the same spec
	// replayed against the server's store, with nothing simulated.
	// dseserve keeps both stores under -data as evalcache/ and seqcache/.
	opts, err := prepare(servedSpec(e.seed), final.data)
	if err != nil {
		return v, o, err
	}
	replay, err := runCampaign(e, opts, false, values{})
	if err != nil {
		return v, o, err
	}
	countCampaign(&o, replay)
	if n := replay.res.EvalStats.Simulations; n != 0 {
		return v, o, checkf("in-process replay against the server's store simulated %d configurations", n)
	}
	if err := replay.bytes.equal(final.reports); err != nil {
		return v, o, checkf("served reports differ from the in-process run: %v", err)
	}

	if e.trace {
		v["trace.overhead_frac"] = final.dur.Seconds()/runs[0].dur.Seconds() - 1
		fl := summariseLoad(final.polls, requestTimeout)
		v["serve.submit_ms"] = final.submitMs
		v["serve.queue_s"] = final.queueS
		v["serve.status_ms_p50"], v["serve.status_ms_p90"] = fl.p50ms, fl.p90ms
		v["serve.sse_events"] = float64(len(final.frames))
		v["serve.report_ms"] = median(final.reportMs)
		v["serve.requests"] = float64(clients[len(clients)-1].ops.attempted)
		v["serve.errors"] = float64(clients[len(clients)-1].ops.failed)
		v["serve.checkpoint_files"] = float64(final.ckFiles)
		v["serve.checkpoint_kb"] = final.ckKB
		v["loadgen.polls"] = float64(len(final.polls))
		v["loadgen.late_ms_p90"] = fl.lateP90ms
		// A backlog that grows shows as later polls in the second half.
		half := len(final.polls) / 2
		v["late_ms_p90_head"] = summariseLoad(final.polls[:half], requestTimeout).lateP90ms
		v["late_ms_p90_tail"] = summariseLoad(final.polls[half:], requestTimeout).lateP90ms
		for k, x := range final.stages {
			v[k] = x
		}
		runtimeLayer(v, final.heap.totalAlloc, final.heap.numGC, final.heap.pauseNs)
		memoLayer(replay.res, v)
		fresh, err := prepare(servedSpec(e.seed), filepath.Join(e.work, "replica"))
		if err != nil {
			return v, o, err
		}
		if err := traceReplica(e, fresh, replay.res, v); err != nil {
			return v, o, err
		}
	}
	return v, o, nil
}
