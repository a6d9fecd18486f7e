package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer: its name (the layer and call), when
// it ran relative to the start of the trace, the span it ran inside, and
// the unit or request it belongs to.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: a root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Ref    int64  `json:"ref"` // unit or request number; -1 when neither applies
}

// tracer records spans in memory. The traced pass is one goroutine, so
// the enclosing span is simply the innermost open one. A tracer that is
// off records nothing: the same pass run both ways gives the overhead.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
	open  []int // ids of the open spans, outermost first
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// begin opens a span inside the innermost open one and returns its id.
func (t *tracer) begin(name string, ref int64) int {
	if !t.on {
		return 0
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Ref: ref, Start: int64(time.Since(t.t0))})
	t.open = append(t.open, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int) {
	if !t.on {
		return
	}
	if n := len(t.open); n == 0 || t.open[n-1] != id {
		panic("benchmark: spans closed out of order") // a bug in the traced pass itself
	}
	t.spans[id-1].End = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
}

// layerStat sums one span name: how often it ran, its total time, and its
// self time — the total minus the part its child spans cover.
type layerStat struct {
	Count   int   `json:"count"`
	TotalNs int64 `json:"total_ns"`
	SelfNs  int64 `json:"self_ns"`
}

// selfTimes computes every span's self time: its duration minus the union
// of its children's intervals clipped to it, so overlapping or
// out-of-bounds children are never subtracted twice.
func selfTimes(spans []span) []int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, upTo := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, upTo), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				upTo = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// layerStats aggregates spans by name.
func layerStats(spans []span) map[string]layerStat {
	self := selfTimes(spans)
	out := map[string]layerStat{}
	for i, s := range spans {
		st := out[s.Name]
		st.Count++
		st.TotalNs += s.End - s.Start
		st.SelfNs += self[i]
		out[s.Name] = st
	}
	return out
}

// durations returns the durations of every span with the given name, in
// seconds.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// traceFile is trace-<workload>.json: the spans, their per-layer sums, and
// the fitted cost model with its residuals.
type traceFile struct {
	Workload string               `json:"workload"`
	Seed     int64                `json:"seed"`
	Host     hostInfo             `json:"host"`
	Layers   map[string]layerStat `json:"layers"`
	Model    *costModel           `json:"model"`
	Spans    []span               `json:"spans"`
}

func writeTrace(dir string, tf *traceFile) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+tf.Workload+".json")
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}
