package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// A span is one crossing of a layer boundary by the bench: the call (or the
// batch of N consecutive sub-microsecond calls) it brackets, when it ran,
// the span that caused it, and the request — one slice of the timed phase —
// that all spans beneath it share.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1 for a root
	Req    int32  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int64  `json:"n"` // calls or events the span covers
}

// spanAgg accumulates every span of one name.
type spanAgg struct {
	Spans   int64 `json:"spans"`
	N       int64 `json:"n"`
	TotalNs int64 `json:"total_ns"`
	SelfNs  int64 `json:"self_ns"` // total minus the part child spans cover
}

// maxKeptSpans bounds the spans kept for the dump; the per-name aggregates
// keep counting past it, so the per-layer metrics cover the whole traced
// phase while the file stays small enough to open.
const maxKeptSpans = 200_000

// tracer records spans made by one goroutine. The bench's calls nest and
// never overlap, so open spans form a stack and a span's self time is its
// duration minus the durations of its direct children, known by the time
// it ends.
type tracer struct {
	on   bool         // false: begin/end must not be called (callers test it)
	now  func() int64 // nowNs, the clock beginAt and endAt callers read too
	open []openSpan
	kept []span
	agg  map[string]*spanAgg
	next int32
	req  int32
}

type openSpan struct {
	id, parent int32
	name       string
	start      int64
	childNs    int64
}

func newTracer() *tracer {
	return &tracer{now: nowNs, agg: make(map[string]*spanAgg)}
}

// begin opens a span under the innermost open one. A root span starts a new
// request.
func (t *tracer) begin(name string) {
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1].id
	} else {
		t.req++
	}
	t.open = append(t.open, openSpan{id: t.next, parent: parent, name: name, start: t.now()})
	t.next++
}

// beginAt is begin for a span whose start the caller already read.
func (t *tracer) beginAt(name string, start int64) {
	t.begin(name)
	t.open[len(t.open)-1].start = start
}

// end closes the innermost open span; n is how many calls it covered.
func (t *tracer) end(n int64) { t.endAt(n, t.now()) }

// endAt is end for a span whose end the caller already read.
func (t *tracer) endAt(n, end int64) {
	o := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	d := end - o.start
	a := t.agg[o.name]
	if a == nil {
		a = &spanAgg{}
		t.agg[o.name] = a
	}
	a.Spans++
	a.N += n
	a.TotalNs += d
	a.SelfNs += d - o.childNs
	if len(t.open) > 0 {
		t.open[len(t.open)-1].childNs += d
	}
	if len(t.kept) < maxKeptSpans {
		t.kept = append(t.kept, span{ID: o.id, Parent: o.parent, Req: t.req, Name: o.name, Start: o.start, End: end, N: n})
	}
}

// selfShare is the percentage of the root spans' time that the named span
// kind spent in itself rather than in child spans.
func (t *tracer) selfShare(name, root string) float64 {
	a, r := t.agg[name], t.agg[root]
	if a == nil || r == nil || r.TotalNs == 0 {
		return 0
	}
	return 100 * float64(a.SelfNs) / float64(r.TotalNs)
}

// traceDump is the file a traced run leaves behind.
type traceDump struct {
	Workload  string              `json:"workload"`
	Seed      int64               `json:"seed"`
	Spans     []span              `json:"spans"`
	Truncated bool                `json:"spans_truncated"`
	ByName    map[string]*spanAgg `json:"by_name"`
	Counts    map[string]int64    `json:"counts"`
}

// dump writes the trace to dir/trace-<workload>.json; counts are the run's
// tallies, taken at the same boundaries the spans bracket.
func (t *tracer) dump(dir, workload string, seed int64, counts map[string]int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("creating %s: %w", dir, err)
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("creating trace dump: %w", err)
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(traceDump{
		Workload: workload, Seed: seed, Spans: t.kept,
		Truncated: int64(len(t.kept)) < int64(t.next), ByName: t.agg, Counts: counts,
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", fmt.Errorf("writing %s: %w", path, err)
	}
	return path, nil
}
