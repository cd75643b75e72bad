package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"afterimage/internal/telemetry"
)

// span is one timed interval recorded around a call into a layer.
type span struct {
	id, parent int
	cat        string // workload
	name       string
	op         string // operation id shared by every span of one operation
	tid        int    // Chrome track
	start, end time.Duration
}

// recorder keeps spans in memory; they are written once, at exit. A nil
// recorder records nothing, so traced and untraced paths can share code.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its id (0 on a nil recorder).
func (r *recorder) begin(cat, name, op string, parent, tid int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{id: len(r.spans) + 1, parent: parent, cat: cat,
		name: name, op: op, tid: tid, start: now, end: -1})
	return len(r.spans)
}

// setOp sets the operation id of span id.
func (r *recorder) setOp(id int, op string) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	r.spans[id-1].op = op
	r.mu.Unlock()
}

// end closes span id and returns its duration in ms.
func (r *recorder) end(id int) float64 {
	if r == nil || id == 0 {
		return 0
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.end = now
	return float64((s.end - s.start).Nanoseconds()) / 1e6
}

// unattributed is the share of a workload's operation time (its root spans,
// those without a parent and named "<cat>.op") that the roots' direct
// children do not cover.
func (r *recorder) unattributed(cat string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	roots := map[int]bool{}
	var total, covered time.Duration
	for _, s := range r.spans {
		if s.cat == cat && s.parent == 0 && s.name == cat+".op" && s.end >= 0 {
			roots[s.id] = true
			total += s.end - s.start
		}
	}
	for _, s := range r.spans {
		if roots[s.parent] && s.end >= 0 {
			covered += s.end - s.start
		}
	}
	if total == 0 {
		return 0
	}
	return 1 - float64(covered)/float64(total)
}

// chromeEvent is one Chrome trace_event record.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// Chrome tracks.
const (
	tidSweep = iota + 1
	tidRSA
	tidMitigation
	tidServiceClient0
	tidServiceClient1
	tidFS
)

var trackNames = map[int]string{
	tidSweep: "sweep", tidRSA: "rsa", tidMitigation: "mitigation",
	tidServiceClient0: "service client 0", tidServiceClient1: "service client 1",
	tidFS: "service vfs",
}

// writeChromeFile writes every closed span as a Chrome "X" event, then reads
// the file back through telemetry.ValidateChromeTrace. It returns the event
// count.
func (r *recorder) writeChromeFile(path string) (int, error) {
	r.mu.Lock()
	evs := []chromeEvent{{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": "perfbench"}}}
	for tid := tidSweep; tid <= tidFS; tid++ {
		evs = append(evs, chromeEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
			Args: map[string]any{"name": trackNames[tid]}})
	}
	for _, s := range r.spans {
		if s.end < 0 {
			continue
		}
		evs = append(evs, chromeEvent{
			Name: s.name, Cat: s.cat, Ph: "X", Pid: 1, Tid: s.tid,
			Ts:   float64(s.start.Nanoseconds()) / 1e3,
			Dur:  float64((s.end - s.start).Nanoseconds()) / 1e3,
			Args: map[string]any{"id": s.id, "parent": s.parent, "op": s.op},
		})
	}
	r.mu.Unlock()
	raw, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return 0, err
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return 0, err
	}
	back, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	n, err := telemetry.ValidateChromeTrace(bytes.NewReader(back))
	if err != nil {
		return 0, fmt.Errorf("trace does not validate: %w", err)
	}
	return n, nil
}
