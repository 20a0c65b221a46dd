package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed public call: name, start and end in nanoseconds
// since the tracer started, and the span that caused it (-1 for none).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// tracer records spans around the benchmark's calls into each layer.
// Low-rate calls (deploys, builds, churn ops, repairs) keep one span
// each. The per-query calls of a timed loop, millions per run, are
// folded into one histogram per span name as they close: kept one by
// one they would need hundreds of megabytes. A nil *tracer records
// nothing, so untraced runs pass nil through the same code.
type tracer struct {
	t0     time.Time
	mu     sync.Mutex
	spans  []span
	folds  map[string]*hist
	values map[string][]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), folds: map[string]*hist{}, values: map[string][]float64{}}
}

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: now, End: -1})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
}

// fold merges a goroutine's histogram of per-query spans named name.
func (t *tracer) fold(name string, h *hist) {
	if t == nil || h.n == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.folds[name] == nil {
		t.folds[name] = &hist{}
	}
	t.folds[name].merge(h)
}

// note records a derived per-layer sample, such as a span minus a child.
func (t *tracer) note(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.values[name] = append(t.values[name], v)
}

// durations returns the closed spans named name, in milliseconds.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// foldQuantile is the q-quantile of the folded spans named name, in
// microseconds.
func (t *tracer) foldQuantile(name string, q float64) float64 {
	h := t.folds[name]
	if h == nil {
		return 0
	}
	return h.quantile(q) / 1e3
}

// computeSelf sets each span's self time: its duration minus the part
// of it its children cover.
func (t *tracer) computeSelf() {
	kids := map[int][][2]int64{}
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		if s.End < 0 {
			continue
		}
		iv := kids[s.ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, reach int64 = 0, s.Start
		for _, c := range iv {
			lo, hi := max(c[0], reach), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		s.Self = s.End - s.Start - covered
	}
}

// traceFile is what a traced run writes at exit.
type traceFile struct {
	Workload string              `json:"workload"`
	Seed     uint64              `json:"seed"`
	Spans    []span              `json:"spans"`
	Folded   map[string]foldStat `json:"folded"`
}

type foldStat struct {
	Count uint64  `json:"count"`
	P50US float64 `json:"p50_us"`
	P90US float64 `json:"p90_us"`
}

// write computes self times and writes the spans and folded summaries
// to path as JSON.
func (t *tracer) write(path, workload string, seed uint64) error {
	t.computeSelf()
	tf := traceFile{Workload: workload, Seed: seed, Spans: t.spans, Folded: map[string]foldStat{}}
	for name, h := range t.folds {
		tf.Folded[name] = foldStat{Count: h.n, P50US: h.quantile(0.5) / 1e3, P90US: h.quantile(0.9) / 1e3}
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
