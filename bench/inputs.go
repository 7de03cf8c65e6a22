package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"

	"repro/internal/apps"
	"repro/internal/harness"
	"repro/pythia"
)

// The stream sets. mix7 is five applications made of regular nested loops
// (they replay the same stream under any seed) and two whose control flow
// depends on the seed; lu8 is the eight rank streams of LU.
var (
	regularApps   = []string{"BT", "CG", "LU", "Lulesh", "Kripke"}
	irregularApps = []string{"AMG", "Quicksilver"}
	mix7          = append(append([]string(nil), regularApps...), irregularApps...)
	driftApps     = []string{"LU", "AMG"}
	lu8           = []string{"LU"}
)

// appStreams is one captured execution: the event-name stream of every rank.
type appStreams struct {
	name   string
	tids   []int32
	byTID  map[int32][]string
	events int
	model  *pythia.TraceSet // the execution recorded as a reference model, where the workload predicts from it
}

// capture runs the named applications once under seed and returns their
// rank streams. This is the only place the seed enters: everything the
// program under test sees is the names these streams hold.
func capture(names []string, class apps.Class, seed int64) ([]appStreams, error) {
	out := make([]appStreams, 0, len(names))
	for _, n := range names {
		app, err := apps.ByName(n)
		if err != nil {
			return nil, err
		}
		a := appStreams{name: n, byTID: harness.CaptureStreams(app, class, seed)}
		for tid, s := range a.byTID {
			a.tids = append(a.tids, tid)
			a.events += len(s)
		}
		if a.events == 0 {
			return nil, fmt.Errorf("%s.%s seed %d produced no events", n, class, seed)
		}
		sort.Slice(a.tids, func(i, j int) bool { return a.tids[i] < a.tids[j] })
		out = append(out, a)
	}
	return out, nil
}

// withModels records every execution of the set as a reference model.
func withModels(set []appStreams) error {
	for i := range set {
		var err error
		if set[i].model, err = recordModel(set[i]); err != nil {
			return err
		}
	}
	return nil
}

// captureStreams returns the capture of a workload that replays one stream
// set and predicts from no model.
func captureStreams(names []string) func(apps.Class, int64, string) (inputs, error) {
	return func(class apps.Class, seed int64, _ string) (inputs, error) {
		set, err := capture(names, class, seed)
		return inputs{sets: [][]appStreams{set}}, err
	}
}

// captureModels returns the capture of a workload that replays one stream
// set against models of the same executions.
func captureModels(names []string) func(apps.Class, int64, string) (inputs, error) {
	return func(class apps.Class, seed int64, _ string) (inputs, error) {
		set, err := capture(names, class, seed)
		if err != nil {
			return inputs{}, err
		}
		return inputs{sets: [][]appStreams{set}}, withModels(set)
	}
}

// captureTenant is the capture of the serving workloads: lu8, its model,
// and that model saved as the tenant's trace file in dir/traces, where the
// daemon of every set-up finds it.
func captureTenant(class apps.Class, seed int64, dir string) (inputs, error) {
	in, err := captureModels(lu8)(class, seed, dir)
	if err != nil {
		return in, err
	}
	lu := in.sets[0][0]
	in.traces, err = saveTenant(dir, lu.name, lu.model)
	return in, err
}

// saveTenant writes model as the trace file of tenant name in dir/traces,
// the directory a daemon is then started on.
func saveTenant(dir, name string, model *pythia.TraceSet) (traces string, err error) {
	traces = filepath.Join(dir, "traces")
	if err := os.MkdirAll(traces, 0o755); err != nil {
		return "", err
	}
	return traces, pythia.SaveTraceSet(filepath.Join(traces, name+".pythia"), model)
}

// reversed returns the streams replayed back to front: the workload phase
// shift pythia-loadgen -drift uses, which the recorded model mispredicts.
func (a appStreams) reversed() appStreams {
	r := appStreams{name: a.name, tids: a.tids, events: a.events, model: a.model, byTID: make(map[int32][]string, len(a.byTID))}
	for tid, s := range a.byTID {
		rev := make([]string, len(s))
		for i, name := range s {
			rev[len(s)-1-i] = name
		}
		r.byTID[tid] = rev
	}
	return r
}

// syntheticClock is a recording clock that advances one microsecond per
// reading, so a model recorded with it is bit-identical from run to run.
func syntheticClock() func() int64 {
	var t atomic.Int64
	return func() int64 { return t.Add(1000) }
}

// recordModel records the streams as a reference execution on the synthetic
// clock and returns the trace set a predicting oracle loads.
func recordModel(a appStreams) (*pythia.TraceSet, error) {
	o := pythia.NewRecordOracle(pythia.WithClock(syntheticClock()))
	for _, tid := range a.tids {
		th := o.Thread(tid)
		for _, name := range a.byTID[tid] {
			th.Submit(o.Intern(name))
		}
	}
	ts, err := o.Finish()
	if err != nil {
		return nil, fmt.Errorf("recording %s model: %w", a.name, err)
	}
	return ts, nil
}
