package campaign

import "errors"

// ErrCanceled is returned by Run when Options.Cancel fires before the
// campaign completes. Cancellation is cooperative and checkpoint-clean:
// cells already being explored when the signal arrives run to completion
// and persist their artifacts (a half-explored cell is worthless, a
// checkpointed one resumes for free), no new cell work starts, and the
// run returns as soon as the in-flight cells have drained. With a
// checkpoint store a canceled campaign is therefore exactly a campaign
// stopped at an artifact boundary: rerunning with Resume picks up where
// it left off with zero re-simulation.
var ErrCanceled = errors.New("campaign: run canceled")

// Progress event kinds (ProgressEvent.Kind).
const (
	// ProgressStageStart marks a stage beginning; Cells carries the grid
	// size so observers can size progress bars before any cell lands.
	ProgressStageStart = "stage-start"
	// ProgressStageDone marks a stage completing (every cell of the
	// stage accounted for).
	ProgressStageDone = "stage-done"
	// ProgressCellDone marks one cell's stage artifact becoming
	// available — computed here, or observed in the checkpoint store
	// (Resumed distinguishes the two).
	ProgressCellDone = "cell-done"
)

// ProgressEvent is one stage or cell transition of a running campaign,
// delivered to Options.OnProgress. Events are execution provenance,
// like the Log stream: the set of cell events per stage is
// deterministic, their order follows scheduling. Cell events fire when
// the cell's stage artifact is observed — persisted after local
// computation, or loaded from the checkpoint store when a prior run or
// a cooperating worker produced it — so an observer tailing the events
// sees exactly the artifact history of the store.
type ProgressEvent struct {
	// Kind is one of the Progress* constants.
	Kind string `json:"kind"`
	// Stage is the stage the event belongs to.
	Stage Stage `json:"stage"`
	// Cell is the grid index for cell events, -1 for stage events.
	Cell int `json:"cell"`
	// Cells is the grid size (stage events only).
	Cells int `json:"cells,omitempty"`
	// Scenario / Device name the cell (cell events only).
	Scenario string `json:"scenario,omitempty"`
	Device   string `json:"device,omitempty"`
	// Fidelity is the artifact's fidelity for exploration cell events.
	Fidelity string `json:"fidelity,omitempty"`
	// Resumed reports the artifact was loaded from the checkpoint store
	// rather than computed by this process.
	Resumed bool `json:"resumed,omitempty"`
	// Failed reports a quarantined cell (see CellResult.Failed).
	Failed bool `json:"failed,omitempty"`
	// Owner is who produced the artifact (worker id, "local", "store").
	Owner string `json:"owner,omitempty"`
}

// emitStage delivers a stage-level progress event.
func (r *runner) emitStage(kind string, stage Stage) {
	r.emit(ProgressEvent{Kind: kind, Stage: stage, Cell: -1, Cells: len(r.cells)})
}

// emitCell delivers a cell-level progress event for an exploration
// outcome.
func (r *runner) emitCell(stage Stage, cell Cell, out *cellOutcome) {
	if out.err != nil || out.art == nil {
		return
	}
	r.emit(ProgressEvent{
		Kind:     ProgressCellDone,
		Stage:    stage,
		Cell:     cell.Index,
		Scenario: cell.Scenario.Name,
		Device:   cell.Target.Name,
		Fidelity: out.art.Fidelity,
		Resumed:  out.resumed,
		Failed:   out.art.Failed,
		Owner:    out.owner,
	})
}

// emit serialises OnProgress callbacks: cell events fire from worker
// goroutines, so a callback that is safe for a serial observer is safe
// here too (mirroring the Log contract).
func (r *runner) emit(ev ProgressEvent) {
	if r.opts.OnProgress == nil {
		return
	}
	r.progressMu.Lock()
	r.opts.OnProgress(ev)
	r.progressMu.Unlock()
}

// canceled reports whether Options.Cancel has fired. A nil channel
// never fires.
func (r *runner) canceled() bool {
	select {
	case <-r.opts.Cancel:
		return true
	default:
		return false
	}
}

// cancelErr reports canceled as ErrCanceled, the form the store's
// ladder checks on every turn.
func (r *runner) cancelErr() error {
	if r.canceled() {
		return ErrCanceled
	}
	return nil
}
