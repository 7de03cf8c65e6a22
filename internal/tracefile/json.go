package tracefile

import (
	"encoding/json"
	"io"
	"strconv"

	"repro/internal/model"
)

// JSON export of a trace set for external tooling (plotting scripts,
// diffing, debugging). The grammars and the event table can be rebuilt from
// it, the per-context timing model cannot: the binary format remains the
// canonical on-disk representation.

// JSONTraceSet mirrors model.TraceSet with stable, documented field names.
type JSONTraceSet struct {
	// Events is the descriptor table indexed by event id.
	Events []string `json:"events"`
	// Threads maps thread ids (as decimal strings, for JSON object keys) to
	// their artifacts.
	Threads map[string]JSONThread `json:"threads"`
	// Provenance records checkpoint/recovery origin, absent on traces from
	// a clean end-of-run Finish.
	Provenance *JSONProvenance `json:"provenance,omitempty"`
}

// JSONProvenance mirrors model.Provenance.
type JSONProvenance struct {
	Generation     uint64 `json:"generation"`
	Salvaged       bool   `json:"salvaged,omitempty"`
	ReplicatedFrom string `json:"replicated_from,omitempty"`
}

// JSONThread is one thread's artifacts.
type JSONThread struct {
	EventCount int64      `json:"event_count"`
	Rules      []JSONRule `json:"rules"`
	// Truncated marks a recording frozen by a record-mode resource budget;
	// Dropped counts the events seen after the freeze.
	Truncated bool  `json:"truncated,omitempty"`
	Dropped   int64 `json:"dropped_events,omitempty"`
	// Timing is the per-event mean delta in nanoseconds (context-free view;
	// the full per-context model only exists in the binary format).
	Timing map[string]float64 `json:"timing_mean_ns,omitempty"`
}

// JSONRule is one production: a flat list of runs.
type JSONRule struct {
	Body []JSONRun `json:"body"`
}

// JSONRun is one run of a rule body: a terminal event id or a rule
// reference, with a repetition count.
type JSONRun struct {
	// Event is the terminal event id; valid when Rule is nil.
	Event *int32 `json:"event,omitempty"`
	// Rule is the referenced rule index; valid when Event is nil.
	Rule  *int32 `json:"rule,omitempty"`
	Count uint32 `json:"count"`
}

// ExportJSON writes the trace set as indented JSON.
func ExportJSON(w io.Writer, ts *model.TraceSet) error {
	out := JSONTraceSet{
		Events:  ts.Events,
		Threads: make(map[string]JSONThread, len(ts.Threads)),
	}
	if p := ts.Provenance; p != nil {
		out.Provenance = &JSONProvenance{Generation: p.Generation, Salvaged: p.Salvaged, ReplicatedFrom: p.ReplicatedFrom}
	}
	for _, tid := range ts.ThreadIDs() {
		th := ts.Threads[tid]
		jt := JSONThread{
			EventCount: th.Grammar.EventCount,
			Truncated:  th.Truncated,
			Dropped:    th.Dropped,
		}
		for _, r := range th.Grammar.Rules {
			jr := JSONRule{}
			for _, run := range r.Body {
				out := JSONRun{Count: run.Count}
				if run.Sym.IsTerminal() {
					v := run.Sym.Event()
					out.Event = &v
				} else {
					v := run.Sym.RuleIndex()
					out.Rule = &v
				}
				jr.Body = append(jr.Body, out)
			}
			jt.Rules = append(jt.Rules, jr)
		}
		if th.Timing != nil && len(th.Timing.ByEvent) > 0 {
			jt.Timing = make(map[string]float64, len(th.Timing.ByEvent))
			for id, s := range th.Timing.ByEvent {
				name := "?"
				if int(id) < len(ts.Events) {
					name = ts.Events[id]
				}
				jt.Timing[name] = s.Mean()
			}
		}
		out.Threads[strconv.FormatInt(int64(tid), 10)] = jt
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
