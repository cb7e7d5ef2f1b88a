package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed layer call made by the benchmark. Spans are kept in
// memory and written as Chrome trace JSON when the benchmark exits.
type span struct {
	ID     int
	Parent int // 0 = root
	Run    int // repetition the span belongs to
	Name   string
	Start  time.Duration // since the tracer's origin
	End    time.Duration
	// Calls > 0 marks an aggregated span: the summed duration of Calls
	// per-record calls (Analysis.Add, Sink.Observe) made inside the
	// parent. It is laid out from the parent's start, and its whole
	// duration counts as covered time of the parent.
	Calls int64
}

func (s *span) dur() time.Duration { return s.End - s.Start }

// tracer records spans around the benchmark's calls into each layer. A
// nil *tracer is the untraced mode: every method is a no-op, so timed
// repetitions pay one nil check per layer call.
type tracer struct {
	origin time.Time
	run    int
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its id (0 when untraced).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin)
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Run: t.run, Name: name, Start: now, End: now})
	return len(t.spans)
}

// end closes the span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = time.Since(t.origin)
}

// aggregate records calls per-record calls into a layer, totalling d, as
// a child of parent.
func (t *tracer) aggregate(name string, parent int, d time.Duration, calls int64) {
	if t == nil || parent == 0 || calls == 0 {
		return
	}
	p := t.spans[parent-1]
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Run: t.run, Name: name, Start: p.Start, End: p.Start + d, Calls: calls})
}

// get returns the span with the given id.
func (t *tracer) get(id int) *span { return &t.spans[id-1] }

// find returns the last span of the current run with this name, or nil.
func (t *tracer) find(name string) *span {
	for i := len(t.spans) - 1; i >= 0 && t.spans[i].Run == t.run; i-- {
		if t.spans[i].Name == name {
			return &t.spans[i]
		}
	}
	return nil
}

// seconds is the duration of the current run's last span of this name,
// 0 when the run made no such call.
func (t *tracer) seconds(name string) float64 {
	if s := t.find(name); s != nil {
		return s.dur().Seconds()
	}
	return 0
}

// selfTime is a span's duration minus the part of its interval its child
// spans cover (aggregated children count in full).
func (t *tracer) selfTime(id int) time.Duration {
	p := t.spans[id-1]
	var agg time.Duration
	var iv [][2]time.Duration
	for i := id; i < len(t.spans); i++ {
		c := &t.spans[i]
		if c.Parent != id {
			continue
		}
		if c.Calls > 0 {
			agg += c.dur()
			continue
		}
		iv = append(iv, [2]time.Duration{max(c.Start, p.Start), min(c.End, p.End)})
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered, reach time.Duration
	reach = p.Start
	for _, x := range iv {
		if x[1] <= reach {
			continue
		}
		covered += x[1] - max(x[0], reach)
		reach = x[1]
	}
	return p.dur() - covered - agg
}

// writeChrome writes every span as a Chrome trace-event "X" event: one
// thread row per repetition, self time and parent in the args.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	evs := make([]event, len(t.spans))
	for i := range t.spans {
		s := &t.spans[i]
		args := map[string]any{"id": s.ID, "parent": s.Parent, "run": s.Run, "self_us": float64(t.selfTime(s.ID)) / 1e3}
		if s.Calls > 0 {
			args["calls"] = s.Calls
		}
		evs[i] = event{Name: s.Name, Ph: "X", Ts: float64(s.Start) / 1e3, Dur: float64(s.dur()) / 1e3, Pid: 1, Tid: s.Run, Args: args}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
