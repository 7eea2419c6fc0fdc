package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"slamgo/internal/campaign"
	"slamgo/internal/sharedfs"
	"slamgo/internal/slambench"
)

// Job states. A job is terminal in StateDone, StateFailed and
// StateCanceled. StateInterrupted means this process drained with the
// job mid-run: its runner has exited, and the next boot re-enqueues
// the job as pending to resume from its checkpoint store.
const (
	StatePending     = "pending"
	StateRunning     = "running"
	StateDone        = "done"
	StateFailed      = "failed"
	StateCanceled    = "canceled"
	StateInterrupted = "interrupted"
)

// ErrDraining rejects submissions during graceful shutdown.
var ErrDraining = errors.New("serve: draining, not accepting new campaigns")

// Job directory artifacts under <data>/jobs/<id>/.
const (
	specFile     = "spec.json"
	storeDir     = "store"
	reportJSON   = "report.json"
	reportCSV    = "report.csv"
	reportTable  = "report.txt"
	canceledFile = "canceled"
	failedFile   = "failed"
)

// Job is one served campaign: a spec, its private checkpoint store,
// and the in-memory execution state the handlers read. Every byte the
// steady-state handlers serve (status JSON, report renderings) is
// cached here and re-rendered only on state transitions, which is what
// makes the request path allocation-free.
type Job struct {
	id   string
	dir  string
	spec CampaignSpec

	// cancel is the cooperative stop signal threaded into the campaign
	// run. User cancellation writes the canceled marker before closing;
	// drain closes without a marker, so the next boot resumes the job.
	cancel     chan struct{}
	cancelOnce sync.Once

	mu        sync.Mutex
	state     string
	stage     string
	cells     int
	stageDone int // cell events observed in the current stage
	cellEvent int // cell events observed over the whole run
	errMsg    string
	evalSims  int
	evalHits  int

	status  []byte   // cached status JSON, re-rendered on every change
	frames  [][]byte // rendered SSE frames, append-only
	changed chan struct{}
	done    chan struct{}

	repJSON  []byte
	repCSV   []byte
	repTable []byte
}

func newJob(id, dir string, spec CampaignSpec, state string) *Job {
	j := &Job{
		id:      id,
		dir:     dir,
		spec:    spec,
		state:   state,
		cancel:  make(chan struct{}),
		changed: make(chan struct{}),
		done:    make(chan struct{}),
	}
	j.renderStatusLocked()
	return j
}

// ID returns the job identity (CampaignSpec.ID of its spec).
func (j *Job) ID() string { return j.id }

// State returns the job's current lifecycle state.
func (j *Job) State() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// StatusJSON returns the cached status rendering. The slice is
// immutable once returned — a change renders a fresh one.
func (j *Job) StatusJSON() []byte {
	j.mu.Lock()
	b := j.status
	j.mu.Unlock()
	return b
}

// Report returns the cached report rendering for a format ("json",
// "csv" or "table") and whether the job has one (only done jobs do).
func (j *Job) Report(format string) ([]byte, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	var b []byte
	switch format {
	case "json":
		b = j.repJSON
	case "csv":
		b = j.repCSV
	case "table":
		b = j.repTable
	}
	return b, b != nil
}

// framesFrom returns the SSE frames not yet seen by a follower, the
// channel that signals the next change, and whether the job is
// terminal. Frames are append-only and individually immutable, so the
// returned slice is safe to iterate outside the lock.
func (j *Job) framesFrom(n int) ([][]byte, <-chan struct{}, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	var fresh [][]byte
	if n < len(j.frames) {
		fresh = j.frames[n:]
	}
	return fresh, j.changed, endedState(j.state)
}

func terminalState(s string) bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// endedState additionally includes StateInterrupted: the job is not
// permanently finished (the next boot resumes it), but no further
// events can happen in THIS process — its runner has exited — so
// followers and Done() waiters must unblock.
func endedState(s string) bool {
	return terminalState(s) || s == StateInterrupted
}

// jobStatus is the wire form of GET /campaigns/{id}.
type jobStatus struct {
	ID             string        `json:"id"`
	State          string        `json:"state"`
	Stage          string        `json:"stage,omitempty"`
	Cells          int           `json:"cells,omitempty"`
	StageCellsDone int           `json:"stage_cells_done"`
	CellEvents     int           `json:"cell_events"`
	Error          string        `json:"error,omitempty"`
	EvalSims       int           `json:"eval_simulations"`
	EvalDiskHits   int           `json:"eval_disk_hits"`
	Spec           *CampaignSpec `json:"spec,omitempty"`
}

// renderStatusLocked refreshes the cached status JSON; callers hold mu.
func (j *Job) renderStatusLocked() {
	st := jobStatus{
		ID:             j.id,
		State:          j.state,
		Stage:          j.stage,
		Cells:          j.cells,
		StageCellsDone: j.stageDone,
		CellEvents:     j.cellEvent,
		Error:          j.errMsg,
		EvalSims:       j.evalSims,
		EvalDiskHits:   j.evalHits,
		Spec:           &j.spec,
	}
	b, err := json.Marshal(st)
	if err != nil {
		b = []byte(`{"id":"` + j.id + `","state":"` + j.state + `"}`)
	}
	j.status = append(b, '\n')
}

// broadcastLocked wakes every follower; callers hold mu.
func (j *Job) broadcastLocked() {
	close(j.changed)
	j.changed = make(chan struct{})
}

// appendFrameLocked renders one SSE frame and appends it to the replay
// log; callers hold mu.
func (j *Job) appendFrameLocked(event string, payload any) {
	data, err := json.Marshal(payload)
	if err != nil {
		return
	}
	var buf bytes.Buffer
	buf.Grow(len(event) + len(data) + 16)
	buf.WriteString("event: ")
	buf.WriteString(event)
	buf.WriteString("\ndata: ")
	buf.Write(data)
	buf.WriteString("\n\n")
	j.frames = append(j.frames, buf.Bytes())
}

// observe is the campaign.Options.OnProgress hook: it folds stage and
// cell transitions into the cached status and the SSE replay log. The
// campaign serialises OnProgress calls, so mu ordering is simple.
func (j *Job) observe(ev campaign.ProgressEvent) {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch ev.Kind {
	case campaign.ProgressStageStart:
		j.stage = string(ev.Stage)
		j.cells = ev.Cells
		j.stageDone = 0
	case campaign.ProgressStageDone:
		j.stage = string(ev.Stage)
		j.cells = ev.Cells
	case campaign.ProgressCellDone:
		j.stageDone++
		j.cellEvent++
	}
	j.appendFrameLocked("progress", ev)
	j.renderStatusLocked()
	j.broadcastLocked()
}

// transition moves the job to a new state, refreshes the cached
// status, logs an SSE state frame and, for ended states, closes Done
// so followers and the drain path unblock.
func (j *Job) transition(state, errMsg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if terminalState(j.state) {
		return
	}
	j.state = state
	j.errMsg = errMsg
	j.renderStatusLocked()
	j.appendFrameLocked("state", jobStatus{ID: j.id, State: state, Error: errMsg,
		StageCellsDone: j.stageDone, CellEvents: j.cellEvent,
		EvalSims: j.evalSims, EvalDiskHits: j.evalHits})
	j.broadcastLocked()
	if endedState(state) {
		close(j.done)
	}
}

// requestCancel fires the cooperative stop signal once.
func (j *Job) requestCancel() {
	j.cancelOnce.Do(func() { close(j.cancel) })
}

// Manager owns the job set: the bounded runner pool, the data
// directory whose shared evaluation store and sequence cache every job
// points at (campaign.Options.UseCacheRoot), and the boot-time resume
// scan. One Manager serves one data directory; a process restart with
// the same directory picks every interrupted job back up from its
// checkpoint store.
type Manager struct {
	dataDir string
	jobsDir string
	slots   chan struct{}
	logf    func(format string, args ...any)

	mu       sync.Mutex
	jobs     map[string]*Job
	draining bool
	wg       sync.WaitGroup
}

// NewManager prepares a manager over a data directory. maxConcurrent
// bounds how many campaigns run simultaneously (queued jobs wait in
// submission order on the pool semaphore); logf receives operational
// logging (nil discards it).
func NewManager(dataDir string, maxConcurrent int, logf func(format string, args ...any)) (*Manager, error) {
	if maxConcurrent <= 0 {
		maxConcurrent = 1
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	m := &Manager{
		dataDir: dataDir,
		jobsDir: filepath.Join(dataDir, "jobs"),
		slots:   make(chan struct{}, maxConcurrent),
		logf:    logf,
		jobs:    make(map[string]*Job),
	}
	if err := os.MkdirAll(m.jobsDir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	return m, nil
}

// Resume scans the jobs directory and reconstructs every job a
// previous process left behind: done/failed/canceled jobs are loaded
// as terminal records (their cached reports served from disk), and
// jobs interrupted mid-run re-enter the queue and resume from their
// checkpoint stores. Returns how many jobs re-entered the queue.
func (m *Manager) Resume() (int, error) {
	entries, err := os.ReadDir(m.jobsDir)
	if err != nil {
		return 0, fmt.Errorf("serve: %w", err)
	}
	resumed := 0
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		id := e.Name()
		dir := filepath.Join(m.jobsDir, id)
		raw, err := os.ReadFile(filepath.Join(dir, specFile))
		if err != nil {
			m.logf("job %s: skipping: %v", id, err)
			continue
		}
		var spec CampaignSpec
		if err := json.Unmarshal(raw, &spec); err != nil {
			m.logf("job %s: skipping: %v", id, err)
			continue
		}
		switch {
		case fileExists(filepath.Join(dir, canceledFile)):
			// A user-canceled job stays canceled across restarts; only an
			// explicit resubmission revives it.
			j := newJob(id, dir, spec, StateCanceled)
			j.requestCancel()
			close(j.done)
			m.jobs[id] = j
		case fileExists(filepath.Join(dir, failedFile)):
			msg, _ := os.ReadFile(filepath.Join(dir, failedFile))
			j := newJob(id, dir, spec, StateFailed)
			j.errMsg = string(bytes.TrimSpace(msg))
			j.renderStatusLocked()
			j.requestCancel()
			close(j.done)
			m.jobs[id] = j
		case m.loadDone(id, dir, spec):
			// loadDone installed the job.
		default:
			// Interrupted mid-run: back to pending, resuming from the
			// checkpoint store when a pool slot frees up.
			j := newJob(id, dir, spec, StatePending)
			m.jobs[id] = j
			m.enqueue(j)
			resumed++
			m.logf("job %s: resuming from checkpoint", id)
		}
	}
	return resumed, nil
}

// loadDone installs a completed job from its persisted reports,
// reporting whether it did.
func (m *Manager) loadDone(id, dir string, spec CampaignSpec) bool {
	js, err1 := os.ReadFile(filepath.Join(dir, reportJSON))
	cs, err2 := os.ReadFile(filepath.Join(dir, reportCSV))
	tb, err3 := os.ReadFile(filepath.Join(dir, reportTable))
	if err1 != nil || err2 != nil || err3 != nil {
		return false
	}
	j := newJob(id, dir, spec, StateDone)
	j.repJSON, j.repCSV, j.repTable = js, cs, tb
	j.renderStatusLocked()
	j.appendFrameLocked("state", jobStatus{ID: id, State: StateDone})
	close(j.done)
	m.jobs[id] = j
	return true
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// Submit validates a spec and installs (or joins) its job. The spec is
// normalized and fully validated — scenario and device names, budget
// sanity, option consistency — before any directory is created or any
// simulation runs; a malformed submission leaves no trace. Submission
// is idempotent: a spec resolving to an existing live job returns that
// job (created=false). A previously canceled job is revived by
// resubmission.
func (m *Manager) Submit(spec CampaignSpec) (job *Job, created bool, err error) {
	spec.Normalize()
	if _, err := spec.Options(); err != nil {
		return nil, false, err
	}
	id := spec.ID()

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		return nil, false, ErrDraining
	}
	if existing, ok := m.jobs[id]; ok {
		if existing.State() != StateCanceled {
			return existing, false, nil
		}
		// Revive: clear the marker so the new incarnation is not
		// misclassified on the next boot, then fall through to enqueue a
		// fresh job over the same directory (its checkpointed artifacts
		// are still there, so the revived run resumes for free).
		if err := os.Remove(filepath.Join(m.jobsDir, id, canceledFile)); err != nil && !os.IsNotExist(err) {
			return nil, false, fmt.Errorf("serve: revive %s: %w", id, err)
		}
	}
	dir := filepath.Join(m.jobsDir, id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, false, fmt.Errorf("serve: %w", err)
	}
	raw, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return nil, false, fmt.Errorf("serve: %w", err)
	}
	if err := sharedfs.WriteFileAtomic(dir, filepath.Join(dir, specFile), "serve spec", append(raw, '\n')); err != nil {
		return nil, false, err
	}
	j := newJob(id, dir, spec, StatePending)
	m.jobs[id] = j
	m.enqueue(j)
	return j, true, nil
}

// enqueue starts the job's runner goroutine; callers hold m.mu (or are
// still single-threaded in Resume).
func (m *Manager) enqueue(j *Job) {
	m.wg.Add(1)
	go m.run(j)
}

// run executes one job through the bounded pool.
func (m *Manager) run(j *Job) {
	defer m.wg.Done()
	select {
	case m.slots <- struct{}{}:
		defer func() { <-m.slots }()
	case <-j.cancel:
		// Canceled (or drained) while still queued: nothing ran, nothing
		// to checkpoint.
		j.transition(m.cancelState(j), "")
		return
	}
	select {
	case <-j.cancel:
		j.transition(m.cancelState(j), "")
		return
	default:
	}
	j.transition(StateRunning, "")

	opts, err := j.spec.Options()
	if err != nil {
		// Validated at submission; reaching this means the spec file was
		// edited out from under us.
		m.failJob(j, err)
		return
	}
	opts.CheckpointDir = filepath.Join(j.dir, storeDir)
	opts.Resume = true
	opts.WorkerID = "dseserve"
	opts.UseCacheRoot(m.dataDir)
	opts.Cancel = j.cancel
	opts.OnProgress = j.observe
	opts.Log = func(msg string) { m.logf("job %s: %s", j.id, msg) }

	res, err := campaign.Run(opts)
	switch {
	case errors.Is(err, campaign.ErrCanceled):
		m.logf("job %s: %s", j.id, m.cancelState(j))
		j.transition(m.cancelState(j), "")
	case err != nil:
		m.failJob(j, err)
	default:
		m.finishJob(j, res)
	}
}

// cancelState distinguishes user cancellation (marker on disk — stays
// canceled across restarts) from drain interruption (no marker — the
// next boot resumes the job).
func (m *Manager) cancelState(j *Job) string {
	if fileExists(filepath.Join(j.dir, canceledFile)) {
		return StateCanceled
	}
	return StateInterrupted
}

func (m *Manager) failJob(j *Job, err error) {
	m.logf("job %s: failed: %v", j.id, err)
	if werr := sharedfs.WriteFileAtomic(j.dir, filepath.Join(j.dir, failedFile), "serve failure", []byte(err.Error()+"\n")); werr != nil {
		m.logf("job %s: recording failure: %v", j.id, werr)
	}
	j.transition(StateFailed, err.Error())
}

// finishJob renders every report format once, persists them atomically
// (done-ness on disk is exactly "all three reports exist"), and caches
// the bytes for allocation-free serving.
func (m *Manager) finishJob(j *Job, res *campaign.Result) {
	rep := res.Report()
	var js, cs, tb bytes.Buffer
	if err := slambench.WriteCampaignJSON(&js, rep); err != nil {
		m.failJob(j, err)
		return
	}
	if err := slambench.WriteCampaignCSV(&cs, rep); err != nil {
		m.failJob(j, err)
		return
	}
	if err := slambench.WriteCampaignTable(&tb, rep); err != nil {
		m.failJob(j, err)
		return
	}
	for _, f := range []struct {
		name string
		data []byte
	}{
		{reportTable, tb.Bytes()},
		{reportCSV, cs.Bytes()},
		{reportJSON, js.Bytes()}, // JSON last: its presence completes the done predicate
	} {
		if err := sharedfs.WriteFileAtomic(j.dir, filepath.Join(j.dir, f.name), "serve report", f.data); err != nil {
			m.failJob(j, err)
			return
		}
	}
	j.mu.Lock()
	j.repJSON, j.repCSV, j.repTable = js.Bytes(), cs.Bytes(), tb.Bytes()
	j.evalSims, j.evalHits = rep.EvalSimulations, rep.EvalDiskHits
	j.mu.Unlock()
	m.logf("job %s: done (evalstore simulations=%d disk-hits=%d)", j.id, rep.EvalSimulations, rep.EvalDiskHits)
	j.transition(StateDone, "")
}

// Get returns a job by ID (nil when unknown).
func (m *Manager) Get(id string) *Job {
	m.mu.Lock()
	j := m.jobs[id]
	m.mu.Unlock()
	return j
}

// Draining reports whether a drain is underway.
func (m *Manager) Draining() bool {
	m.mu.Lock()
	d := m.draining
	m.mu.Unlock()
	return d
}

// Cancel requests user cancellation of a job: the marker is written
// first (so a crash between marker and signal still reads as a user
// cancel), then the cooperative stop signal fires. In-flight cells
// finish and checkpoint; the job lands in StateCanceled and is never
// auto-resumed. Canceling a terminal job is a no-op reporting the
// terminal state.
func (m *Manager) Cancel(id string) (string, error) {
	j := m.Get(id)
	if j == nil {
		return "", fmt.Errorf("serve: unknown campaign %q", id)
	}
	if s := j.State(); terminalState(s) {
		return s, nil
	}
	if err := sharedfs.WriteFileAtomic(j.dir, filepath.Join(j.dir, canceledFile), "serve cancel", []byte("canceled by request\n")); err != nil {
		return "", err
	}
	j.requestCancel()
	return j.State(), nil
}

// Drain gracefully stops the manager: new submissions are refused,
// every queued or running job receives the cooperative stop signal
// (without a canceled marker, so the next boot resumes them), and the
// call blocks until all runner goroutines have checkpointed and
// exited. Idempotent.
func (m *Manager) Drain() {
	m.mu.Lock()
	m.draining = true
	for _, j := range m.jobs {
		if !terminalState(j.State()) {
			j.requestCancel()
		}
	}
	m.mu.Unlock()
	m.wg.Wait()
}

// Jobs snapshots the current job set (for health reporting).
func (m *Manager) Jobs() []*Job {
	m.mu.Lock()
	out := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		out = append(out, j)
	}
	m.mu.Unlock()
	return out
}
