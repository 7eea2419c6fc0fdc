package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"slamgo/internal/campaign"
	"slamgo/internal/slambench"
)

// tinySpec is the smallest real campaign: one quick cell with a
// minimal exploration budget (~seconds). Shared by the fixture.
func tinySpec() CampaignSpec {
	return CampaignSpec{
		Quick: true, Scenarios: []string{"lr_kt0"}, Devices: []string{"odroid-xu3"},
		RandomSamples: 4, ActiveIterations: 1, BatchPerIteration: 2,
	}
}

// pairSpec is a two-cell serial campaign (Workers 1), sized so a drain
// or cancel lands mid-run with high margin.
func pairSpec() CampaignSpec {
	return CampaignSpec{
		Quick: true, Scenarios: []string{"lr_kt0", "of_kt0"}, Devices: []string{"odroid-xu3"},
		RandomSamples: 4, ActiveIterations: 1, BatchPerIteration: 2, Workers: 1,
	}
}

// fixture runs the tiny campaign once through a real Manager; every
// steady-state test (parity, zero-alloc, SSE replay) reuses the
// completed job instead of paying for its own campaign.
var fixture struct {
	once sync.Once
	dir  string
	m    *Manager
	srv  *Server
	job  *Job
	err  error
}

func fixtureServer(t *testing.T) (*Server, *Manager, *Job) {
	t.Helper()
	fixture.once.Do(func() {
		dir, err := os.MkdirTemp("", "serve-fixture-")
		if err != nil {
			fixture.err = err
			return
		}
		fixture.dir = dir
		m, err := NewManager(dir, 2, nil)
		if err != nil {
			fixture.err = err
			return
		}
		job, created, err := m.Submit(tinySpec())
		if err != nil {
			fixture.err = err
			return
		}
		if !created {
			fixture.err = fmt.Errorf("fresh manager reported an existing job")
			return
		}
		if err := waitTerminal(job, 5*time.Minute); err != nil {
			fixture.err = err
			return
		}
		if s := job.State(); s != StateDone {
			fixture.err = fmt.Errorf("fixture job ended %s", s)
			return
		}
		fixture.m = m
		fixture.srv = NewServer(m, io.Discard)
		fixture.job = job
	})
	if fixture.err != nil {
		t.Fatalf("fixture: %v", fixture.err)
	}
	return fixture.srv, fixture.m, fixture.job
}

func TestMain(m *testing.M) {
	code := m.Run()
	if fixture.dir != "" {
		os.RemoveAll(fixture.dir)
	}
	os.Exit(code)
}

func waitTerminal(j *Job, timeout time.Duration) error {
	select {
	case <-j.Done():
		return nil
	case <-time.After(timeout):
		return fmt.Errorf("job %s still %s after %s", j.ID(), j.State(), timeout)
	}
}

// status parses a job's cached status JSON.
func status(t *testing.T, j *Job) jobStatus {
	t.Helper()
	var st jobStatus
	if err := json.Unmarshal(j.StatusJSON(), &st); err != nil {
		t.Fatalf("status JSON: %v", err)
	}
	return st
}

// directReference runs the spec's campaign directly — no manager, no
// checkpoint, no caches, no leases — and renders it through the same
// writers the CLI uses.
func directReference(t *testing.T, spec CampaignSpec) (jsonB, csvB, tableB []byte) {
	t.Helper()
	spec.Normalize()
	opts, err := spec.Options()
	if err != nil {
		t.Fatal(err)
	}
	res, err := campaign.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report()
	var js, cs, tb bytes.Buffer
	if err := slambench.WriteCampaignJSON(&js, rep); err != nil {
		t.Fatal(err)
	}
	if err := slambench.WriteCampaignCSV(&cs, rep); err != nil {
		t.Fatal(err)
	}
	if err := slambench.WriteCampaignTable(&tb, rep); err != nil {
		t.Fatal(err)
	}
	return js.Bytes(), cs.Bytes(), tb.Bytes()
}

// get dispatches one request through the server and returns the
// recorded response.
func get(srv *Server, method, target string, body io.Reader) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(method, target, body))
	return rec
}

// TestServedReportMatchesDirectRun is the parity acceptance check at
// the package level (scripts/serve-smoke.sh repeats it against the
// real CLI over a real socket): every report format served over HTTP
// is byte-identical to the same campaign run directly, without any of
// the service's checkpoint/cache/lease plumbing.
func TestServedReportMatchesDirectRun(t *testing.T) {
	srv, _, job := fixtureServer(t)
	refJSON, refCSV, refTable := directReference(t, tinySpec())

	for _, c := range []struct {
		query string
		want  []byte
	}{
		{"", refJSON},
		{"?format=json", refJSON},
		{"?format=csv", refCSV},
		{"?format=table", refTable},
	} {
		rec := get(srv, http.MethodGet, "/campaigns/"+job.ID()+"/report"+c.query, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("report%s: HTTP %d", c.query, rec.Code)
		}
		if !bytes.Equal(rec.Body.Bytes(), c.want) {
			t.Fatalf("report%s diverges from the direct run", c.query)
		}
	}
}

// TestServedDeterministicAcrossWorkers: the same spec served with a
// different worker count (in a separate manager — worker count does
// not change job identity) renders bit-identical reports.
func TestServedDeterministicAcrossWorkers(t *testing.T) {
	_, _, refJob := fixtureServer(t)
	refReport, _ := refJob.Report("json")

	spec := tinySpec()
	spec.Workers = 4
	m, err := NewManager(t.TempDir(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	job, _, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if job.ID() != refJob.ID() {
		t.Fatalf("worker count changed job identity: %s vs %s", job.ID(), refJob.ID())
	}
	if err := waitTerminal(job, 5*time.Minute); err != nil {
		t.Fatal(err)
	}
	got, ok := job.Report("json")
	if !ok {
		t.Fatalf("job ended %s", job.State())
	}
	if !bytes.Equal(got, refReport) {
		t.Fatal("served report diverges across worker counts")
	}
}

func TestStatusAndHealthEndpoints(t *testing.T) {
	srv, _, job := fixtureServer(t)

	rec := get(srv, http.MethodGet, "/campaigns/"+job.ID(), nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status: HTTP %d", rec.Code)
	}
	var st jobStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.ID != job.ID() || st.State != StateDone {
		t.Fatalf("status: %+v", st)
	}
	if st.EvalSims == 0 {
		t.Fatal("cold campaign reported zero evaluation-store simulations")
	}
	if st.Spec == nil || st.Spec.Scenarios[0] != "lr_kt0" {
		t.Fatalf("status spec missing: %+v", st)
	}

	rec = get(srv, http.MethodGet, "/healthz", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz: HTTP %d", rec.Code)
	}
	var h healthStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Jobs[StateDone] == 0 || h.HeapAlloc == 0 {
		t.Fatalf("healthz: %+v", h)
	}
}

// nullResponseWriter is the benchmark/allocation-test sink: a reusable
// writer whose header map persists across requests, so steady-state
// header assignment stays allocation-free exactly as it does on a
// kept-alive connection.
type nullResponseWriter struct {
	h http.Header
}

func (w *nullResponseWriter) Header() http.Header         { return w.h }
func (w *nullResponseWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *nullResponseWriter) WriteHeader(int)             {}

// TestSteadyStateRequestsDoNotAllocate enforces the zero-allocation
// service guarantee in-process (the root BenchmarkKernel_Serve*
// benchmarks report the same number to the perf gate): serving status
// and reports for a completed job — including route matching, the
// pooled response wrapper and the access-log line — allocates nothing.
func TestSteadyStateRequestsDoNotAllocate(t *testing.T) {
	_, m, job := fixtureServer(t)
	srv := NewServer(m, io.Discard) // access logging on: it must be free too

	w := &nullResponseWriter{h: make(http.Header)}
	reqStatus := httptest.NewRequest(http.MethodGet, "/campaigns/"+job.ID(), nil)
	reqReport := httptest.NewRequest(http.MethodGet, "/campaigns/"+job.ID()+"/report?format=json", nil)
	reqTable := httptest.NewRequest(http.MethodGet, "/campaigns/"+job.ID()+"/report?format=table", nil)

	// Warm the pools and header map once.
	srv.ServeHTTP(w, reqStatus)
	srv.ServeHTTP(w, reqReport)
	srv.ServeHTTP(w, reqTable)

	n := testing.AllocsPerRun(500, func() {
		srv.ServeHTTP(w, reqStatus)
		srv.ServeHTTP(w, reqReport)
		srv.ServeHTTP(w, reqTable)
	})
	if n != 0 {
		t.Fatalf("steady-state request path allocates %.2f objects per 3 requests, want 0", n)
	}
}

// TestSSEReplayOfCompletedJob: a late subscriber to a finished job
// receives the whole frame history and a final state frame, then the
// stream ends immediately.
func TestSSEReplayOfCompletedJob(t *testing.T) {
	srv, _, job := fixtureServer(t)
	rec := get(srv, http.MethodGet, "/campaigns/"+job.ID()+"/events", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("events: HTTP %d", rec.Code)
	}
	body := rec.Body.String()
	if !strings.Contains(body, "event: progress") {
		t.Fatal("replay contains no progress frames")
	}
	frames := strings.Split(strings.TrimSuffix(body, "\n\n"), "\n\n")
	last := frames[len(frames)-1]
	if !strings.Contains(last, "event: state") || !strings.Contains(last, `"state":"done"`) {
		t.Fatalf("last frame is not the done state: %q", last)
	}
}

// TestDrainCheckpointsInFlightAndResumes is the graceful-shutdown
// acceptance check: a drain mid-campaign finishes and checkpoints the
// in-flight cell, ends the SSE stream, leaks no goroutines, and a new
// manager over the same data directory resumes the job to a report
// byte-identical to an uninterrupted served run — with strictly fewer
// evaluation-store simulations, proving the checkpointed work was
// reused, not redone.
func TestDrainCheckpointsInFlightAndResumes(t *testing.T) {
	// Uninterrupted reference through its own manager.
	mRef, err := NewManager(t.TempDir(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	refJob, _, err := mRef.Submit(pairSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := waitTerminal(refJob, 5*time.Minute); err != nil {
		t.Fatal(err)
	}
	refReport, ok := refJob.Report("json")
	if !ok {
		t.Fatalf("reference job ended %s", refJob.State())
	}
	refSims := status(t, refJob).EvalSims
	if refSims == 0 {
		t.Fatal("reference run reported zero simulations")
	}

	baseline := runtime.NumGoroutine()

	dir := t.TempDir()
	m1, err := NewManager(dir, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv1 := NewServer(m1, io.Discard)
	ts := httptest.NewServer(srv1)
	defer ts.Close()

	job, _, err := m1.Submit(pairSpec())
	if err != nil {
		t.Fatal(err)
	}

	// A live SSE subscriber: it must observe the interruption and its
	// stream must end when the drain lands.
	sseDone := make(chan string, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/campaigns/" + job.ID() + "/events")
		if err != nil {
			sseDone <- "request failed: " + err.Error()
			return
		}
		defer resp.Body.Close()
		var lastState string
		scanner := bufio.NewScanner(resp.Body)
		for scanner.Scan() {
			line := scanner.Text()
			if strings.HasPrefix(line, "data: ") && strings.Contains(line, `"state":"`) {
				lastState = line
			}
		}
		sseDone <- lastState
	}()

	// Wait until the first cell has really completed, then drain while
	// the second is in flight.
	deadline := time.Now().Add(2 * time.Minute)
	for status(t, job).CellEvents == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no cell completed; job %s", job.State())
		}
		time.Sleep(50 * time.Millisecond)
	}
	m1.Drain()
	if s := job.State(); s != StateInterrupted {
		t.Fatalf("drained job state %s, want %s", s, StateInterrupted)
	}
	if _, ok := job.Report("json"); ok {
		t.Fatal("interrupted job serves a report")
	}

	// Submissions are refused while draining.
	if _, _, err := m1.Submit(tinySpec()); err != ErrDraining {
		t.Fatalf("submit during drain: %v", err)
	}

	// The SSE stream ended with the interruption.
	select {
	case last := <-sseDone:
		if !strings.Contains(last, `"state":"interrupted"`) {
			t.Fatalf("SSE stream ended on %q, want the interrupted state frame", last)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("SSE stream did not end after drain")
	}
	ts.Close()

	// No leaked goroutines once the drain returns (the checkpointing
	// runner, lease heartbeats and SSE handler are all gone).
	waitGoroutines(t, baseline)

	// A new manager over the same directory resumes and completes.
	m2, err := NewManager(dir, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := m2.Resume()
	if err != nil {
		t.Fatal(err)
	}
	if resumed != 1 {
		t.Fatalf("resumed %d jobs, want 1", resumed)
	}
	job2 := m2.Get(job.ID())
	if job2 == nil {
		t.Fatal("resumed job not found")
	}
	if err := waitTerminal(job2, 5*time.Minute); err != nil {
		t.Fatal(err)
	}
	got, ok := job2.Report("json")
	if !ok {
		t.Fatalf("resumed job ended %s: %s", job2.State(), job2.StatusJSON())
	}
	if !bytes.Equal(got, refReport) {
		t.Fatal("resumed report diverges from the uninterrupted served run")
	}
	if resumedSims := status(t, job2).EvalSims; resumedSims >= refSims {
		t.Fatalf("resume re-simulated: %d simulations, uninterrupted run needed %d", resumedSims, refSims)
	}
	m2.Drain()
	waitGoroutines(t, baseline)
}

// waitGoroutines polls until the goroutine count returns to the
// baseline (plus scheduler slack), failing after a generous grace
// period — the in-process leak check behind the drain guarantee.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d, baseline %d\n%s", runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// TestCancelEndpointQuarantinesAndRevives: POST /cancel lands the job
// in the canceled state with its marker on disk, the report surface
// answers 409, a restart does NOT resume it — and resubmitting the
// same spec revives it, reusing the checkpointed artifacts.
func TestCancelEndpointQuarantinesAndRevives(t *testing.T) {
	dir := t.TempDir()
	m, err := NewManager(dir, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(m, io.Discard)
	spec := pairSpec()
	spec.Seed = 3 // distinct identity from the drain test's campaign
	job, _, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	rec := get(srv, http.MethodPost, "/campaigns/"+job.ID()+"/cancel", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("cancel: HTTP %d: %s", rec.Code, rec.Body)
	}
	if err := waitTerminal(job, 5*time.Minute); err != nil {
		t.Fatal(err)
	}
	if s := job.State(); s != StateCanceled {
		t.Fatalf("canceled job state %s", s)
	}
	if rec := get(srv, http.MethodGet, "/campaigns/"+job.ID()+"/report", nil); rec.Code != http.StatusConflict {
		t.Fatalf("report of canceled job: HTTP %d, want 409", rec.Code)
	}
	// Canceling again is an idempotent no-op.
	if rec := get(srv, http.MethodPost, "/campaigns/"+job.ID()+"/cancel", nil); rec.Code != http.StatusOK {
		t.Fatalf("re-cancel: HTTP %d", rec.Code)
	}

	// A restart does not auto-resume a user-canceled job.
	m2, err := NewManager(dir, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resumed, err := m2.Resume(); err != nil || resumed != 0 {
		t.Fatalf("restart resumed %d canceled jobs (err %v), want 0", resumed, err)
	}
	if j2 := m2.Get(job.ID()); j2 == nil || j2.State() != StateCanceled {
		t.Fatal("canceled job not restored as canceled after restart")
	}

	// Resubmission revives it on the original manager.
	revived, created, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !created || revived == job {
		t.Fatal("resubmission did not revive the canceled job")
	}
	if err := waitTerminal(revived, 5*time.Minute); err != nil {
		t.Fatal(err)
	}
	if _, ok := revived.Report("json"); !ok {
		t.Fatalf("revived job ended %s", revived.State())
	}
	if fileExists(filepath.Join(dir, "jobs", job.ID(), canceledFile)) {
		t.Fatal("canceled marker survived the revival")
	}
	m.Drain()
	m2.Drain()
}

// TestMalformedSubmissionsRejectedBeforeAnySimulation: every invalid
// submission fails with 400 and leaves no job state behind — no
// directory, no checkpoint, no simulation.
func TestMalformedSubmissionsRejectedBeforeAnySimulation(t *testing.T) {
	dir := t.TempDir()
	m, err := NewManager(dir, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(m, io.Discard)

	bad := []string{
		`{bad json`,
		`{"unknown_field":1}`,
		`{"scenarios":["lr_kt9"]}`,
		`{"devices":["nokia-3310"]}`,
		`{"promote_fraction":1.5}`,
		`{"scenarios":["lr_kt0","lr_kt0"]}`,
		`{"quick":true}{"quick":true}`,
		// Zero means the default; no negative value encodes a true zero.
		`{"active_iterations":-1}`,
		`{"promote_fraction":-1}`,
		`{"cell_promote_fraction":-1}`,
		`{"transfer_seeds":-1,"transfer":true}`,
	}
	for _, body := range bad {
		rec := get(srv, http.MethodPost, "/campaigns", strings.NewReader(body))
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("submission %q: HTTP %d, want 400", body, rec.Code)
		}
	}
	entries, err := os.ReadDir(filepath.Join(dir, "jobs"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("rejected submissions left %d job directories", len(entries))
	}

	// Routing hygiene: wrong method and unknown targets.
	if rec := get(srv, http.MethodGet, "/campaigns", nil); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /campaigns: HTTP %d, want 405", rec.Code)
	}
	if rec := get(srv, http.MethodGet, "/campaigns/deadbeefdeadbeef", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown campaign: HTTP %d, want 404", rec.Code)
	}
	if rec := get(srv, http.MethodPost, "/campaigns/deadbeefdeadbeef/cancel", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("cancel of unknown campaign: HTTP %d, want 404", rec.Code)
	}
	if rec := get(srv, http.MethodGet, "/nope", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown path: HTTP %d, want 404", rec.Code)
	}
}
