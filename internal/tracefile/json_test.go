package tracefile

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/grammar"
	"repro/internal/model"
)

// decodeJSON exports ts and decodes the document back into its JSON form.
func decodeJSON(t *testing.T, ts *model.TraceSet) JSONTraceSet {
	t.Helper()
	var buf bytes.Buffer
	if err := ExportJSON(&buf, ts); err != nil {
		t.Fatalf("ExportJSON: %v", err)
	}
	var out JSONTraceSet
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("decoding the export: %v", err)
	}
	return out
}

// frozenFromJSON rebuilds the frozen grammar one exported thread describes.
func frozenFromJSON(t *testing.T, jt JSONThread) *grammar.Frozen {
	t.Helper()
	bodies := make([][]grammar.Run, len(jt.Rules))
	for i, jr := range jt.Rules {
		for _, run := range jr.Body {
			var sym grammar.Sym
			switch {
			case run.Event != nil:
				sym = grammar.Terminal(*run.Event)
			case run.Rule != nil:
				sym = grammar.NonTerminal(*run.Rule)
			default:
				t.Fatalf("rule %d has a run with neither event nor rule", i)
			}
			bodies[i] = append(bodies[i], grammar.Run{Sym: sym, Count: run.Count})
		}
	}
	g, err := grammar.NewFrozen(bodies)
	if err != nil {
		t.Fatalf("exported rules do not form a grammar: %v", err)
	}
	return g
}

func TestJSONExportImportRoundTrip(t *testing.T) {
	ts := makeTraceSet(t)
	ts.Provenance = &model.Provenance{Generation: 7, Salvaged: true, ReplicatedFrom: "peer-a"}
	got := decodeJSON(t, ts)
	if !reflect.DeepEqual(got.Events, ts.Events) {
		t.Fatal("event tables differ after JSON round trip")
	}
	want := JSONProvenance{Generation: 7, Salvaged: true, ReplicatedFrom: "peer-a"}
	if got.Provenance == nil || *got.Provenance != want {
		t.Fatalf("provenance = %+v, want %+v", got.Provenance, want)
	}
	if len(got.Threads) != len(ts.Threads) {
		t.Fatalf("%d threads exported, want %d", len(got.Threads), len(ts.Threads))
	}
	for tid, th := range ts.Threads {
		jt, ok := got.Threads[strconv.Itoa(int(tid))]
		if !ok {
			t.Fatalf("thread %d lost", tid)
		}
		if jt.EventCount != th.Grammar.EventCount {
			t.Fatalf("thread %d event_count = %d, want %d", tid, jt.EventCount, th.Grammar.EventCount)
		}
		if !reflect.DeepEqual(frozenFromJSON(t, jt).Unfold(), th.Grammar.Unfold()) {
			t.Fatalf("thread %d grammar changed", tid)
		}
	}
}

func TestJSONContainsReadableNames(t *testing.T) {
	ts := makeTraceSet(t)
	var buf bytes.Buffer
	if err := ExportJSON(&buf, ts); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"MPI_Isend:1", "MPI_Barrier", "event_count", "timing_mean_ns"} {
		if !strings.Contains(out, want) {
			t.Fatalf("JSON export missing %q", want)
		}
	}
}
