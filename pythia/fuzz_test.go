package pythia_test

import (
	"reflect"
	"testing"

	"repro/pythia"
)

// FuzzPredictNoisy throws arbitrary event streams — valid ids, ids beyond
// the descriptor table, far-out-of-range garbage, and -1 (the Lookup-miss
// value) — at a predict-mode Thread. Two invariants: nothing panics (the
// fail-open contract), and a query's answer does not depend on the queries
// asked before it: two threads see the same stream, one queried after every
// event and one only every 9th, and there they agree exactly — the window
// and the look-ahead memo are optimisations, never a semantic fork.
func FuzzPredictNoisy(f *testing.F) {
	rec := pythia.NewRecordOracle(pythia.WithoutTimestamps())
	ids := []pythia.ID{rec.Intern("a"), rec.Intern("b"), rec.Intern("c")}
	th := rec.Thread(0)
	for i := 0; i < 200; i++ {
		th.Submit(ids[0])
		th.Submit(ids[1])
		if i%5 == 4 {
			th.Submit(ids[2])
		}
	}
	ts, err := rec.Finish()
	if err != nil {
		f.Fatal(err)
	}

	f.Add([]byte{0, 1, 0, 1, 2})
	f.Add([]byte{0, 1, 200, 0, 1, 255, 0, 1})
	f.Add([]byte{255, 255, 255, 130, 140, 150})

	f.Fuzz(func(t *testing.T, stream []byte) {
		var oracles [2]*pythia.Oracle
		for k := range oracles {
			o, err := pythia.NewPredictOracle(ts, pythia.Config{})
			if err != nil {
				t.Fatal(err)
			}
			oracles[k] = o
		}
		busy, sparse := oracles[0].Thread(0), oracles[1].Thread(0)
		busy.StartAtBeginning()
		sparse.StartAtBeginning()
		for i, b := range stream {
			var id pythia.ID
			switch {
			case b < 128:
				id = ids[int(b)%len(ids)] // interned
			case b < 192:
				id = pythia.ID(b) // beyond the descriptor table
			case b < 255:
				id = pythia.ID(int32(b) << 20) // far garbage
			default:
				id = pythia.ID(-1) // Lookup miss value
			}
			busy.Submit(id)
			sparse.Submit(id)
			pb, okb := busy.PredictAt(1)
			sb := busy.PredictSequence(4)
			if i%9 != 0 {
				continue
			}
			ps, oks := sparse.PredictAt(1)
			if !reflect.DeepEqual([]any{pb, okb}, []any{ps, oks}) {
				t.Fatalf("step %d (byte %d): PredictAt(1) queried every event (%v, %v), every 9th (%v, %v)",
					i, b, pb, okb, ps, oks)
			}
			if ss := sparse.PredictSequence(4); !reflect.DeepEqual(sb, ss) {
				t.Fatalf("step %d (byte %d): PredictSequence(4) queried every event %v, every 9th %v", i, b, sb, ss)
			}
		}
		for k, o := range oracles {
			if h := o.Health(); h.PanicsContained != 0 {
				t.Fatalf("noisy stream caused %d contained panics in oracle %d (cause %q)", h.PanicsContained, k, h.Cause)
			}
		}
	})
}
