package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one recorded interval of work. Times are offsets from the
// tracer's epoch. Spans of one campaign, request or replica share a
// trace id; lane is the Chrome trace "thread" the span is drawn on
// (one lane per concurrently running worker, so nesting draws
// correctly).
type span struct {
	id, parent, trace int64
	name              string
	lane              int
	start, end        time.Duration
	args              map[string]any
}

// tracer keeps spans in memory; nothing is written until the run ends.
// A nil *tracer records nothing, so untraced runs pay one nil check
// per call site.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// at converts a wall-clock instant to a trace offset.
func (t *tracer) at(w time.Time) time.Duration { return w.Sub(t.epoch) }

// spanRef is an open span: the handle child spans hang off.
type spanRef struct {
	t     *tracer
	id    int64
	trace int64
	lane  int
	name  string
	start time.Duration
	args  map[string]any
	up    *spanRef // the span this one was opened under
}

// root opens a span that starts a new trace.
func (t *tracer) root(name string, lane int) *spanRef {
	if t == nil {
		return nil
	}
	id := t.ids.Add(1)
	return &spanRef{t: t, id: id, trace: id, lane: lane, name: name, start: t.at(time.Now())}
}

// child opens a span under c on c's lane.
func (c *spanRef) child(name string) *spanRef { return c.childOn(name, -1) }

// childOn opens a span under c on the given lane (-1 keeps c's lane).
func (c *spanRef) childOn(name string, lane int) *spanRef {
	if c == nil {
		return nil
	}
	if lane < 0 {
		lane = c.lane
	}
	return &spanRef{t: c.t, id: c.t.ids.Add(1), trace: c.trace, lane: lane, name: name,
		start: c.t.at(time.Now()), up: c}
}

// childAt opens a span under c on the given lane whose start was
// observed earlier (spans rebuilt from progress events).
func (c *spanRef) childAt(name string, lane int, start time.Duration) *spanRef {
	if c == nil {
		return nil
	}
	return &spanRef{t: c.t, id: c.t.ids.Add(1), trace: c.trace, lane: lane, name: name, start: start, up: c}
}

// set attaches an attribute that ends up in the span's Chrome args and
// is read back by the per-layer metric extraction.
func (c *spanRef) set(key string, v any) {
	if c == nil {
		return
	}
	if c.args == nil {
		c.args = map[string]any{}
	}
	c.args[key] = v
}

// end closes the span now.
func (c *spanRef) end() {
	if c == nil {
		return
	}
	c.endAt(c.t.at(time.Now()))
}

func (c *spanRef) endAt(end time.Duration) {
	if c == nil {
		return
	}
	var parent int64
	if c.up != nil {
		parent = c.up.id
	}
	c.t.add(span{id: c.id, parent: parent, trace: c.trace, name: c.name, lane: c.lane,
		start: c.start, end: end, args: c.args})
}

// record adds a child span whose bounds were observed after the fact
// (cell spans inferred from progress events, kernel spans laid out from
// a frame's per-kernel times).
func (c *spanRef) record(name string, lane int, start, end time.Duration, args map[string]any) {
	if c == nil {
		return
	}
	c.t.add(span{id: c.t.ids.Add(1), parent: c.id, trace: c.trace, name: name, lane: lane,
		start: start, end: end, args: args})
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns the recorded spans ordered by start.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].start < out[j].start })
	return out
}

// named returns the spans called name.
func named(spans []span, name string) []span {
	var out []span
	for _, s := range spans {
		if s.name == name {
			out = append(out, s)
		}
	}
	return out
}

func (s span) dur() time.Duration { return s.end - s.start }

// selfTimes maps every span id to its self time: its duration minus
// the union of its children's intervals.
func selfTimes(spans []span) map[int64]time.Duration {
	kids := map[int64][]interval{}
	for _, s := range spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], interval{s.start, s.end})
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.id] = selfTime(interval{s.start, s.end}, kids[s.id])
	}
	return out
}

// layerRow is one line of the self-time table.
type layerRow struct {
	name        string
	count       int
	total, self time.Duration
}

// selfTable aggregates spans by name, largest self time first.
func selfTable(spans []span) []layerRow {
	self := selfTimes(spans)
	byName := map[string]*layerRow{}
	for _, s := range spans {
		r := byName[s.name]
		if r == nil {
			r = &layerRow{name: s.name}
			byName[s.name] = r
		}
		r.count++
		r.total += s.dur()
		r.self += self[s.id]
	}
	rows := make([]layerRow, 0, len(byName))
	for _, r := range byName {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].self != rows[j].self {
			return rows[i].self > rows[j].self
		}
		return rows[i].name < rows[j].name
	})
	return rows
}

// writeSelfTable prints the per-layer self-time table of one trace
// (root span title), with each layer's share of the summed self time.
func writeSelfTable(w io.Writer, title string, spans []span) {
	rows := selfTable(spans)
	var all time.Duration
	for _, r := range rows {
		all += r.self
	}
	fmt.Fprintf(w, "self time by layer: %s\n", title)
	fmt.Fprintf(w, "  %-26s %8s %11s %11s %7s\n", "span", "count", "total_s", "self_s", "self%")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-26s %8d %11.4f %11.4f %6.1f%%\n", r.name, r.count,
			r.total.Seconds(), r.self.Seconds(), 100*ratio(float64(r.self), float64(all)))
	}
}

// writeChrome writes spans as Chrome trace-event JSON ("X" complete
// events, microseconds), which chrome://tracing and Perfetto open
// directly. The span's layer (its name up to the first dot) is the
// event category; id, parent and trace ride in args.
func writeChrome(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		args := map[string]any{"id": s.id, "parent": s.parent, "trace": s.trace}
		for k, v := range s.args {
			args[k] = v
		}
		cat, _, _ := strings.Cut(s.name, ".")
		events = append(events, event{Name: s.name, Cat: cat, Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.dur()) / 1e3, Pid: 1, Tid: s.lane, Args: args})
	}
	enc := json.NewEncoder(w)
	err = enc.Encode(struct {
		TraceEvents     []event `json:"traceEvents"`
		DisplayTimeUnit string  `json:"displayTimeUnit"`
	}{events, "ms"})
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
