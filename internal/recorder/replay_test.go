package recorder_test

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/events"
	"repro/internal/grammar"
	"repro/internal/harness"
	"repro/internal/model"
	"repro/internal/progress"
	"repro/internal/recorder"
	"repro/internal/tracefile"
)

// tick is the synthetic clock of these tests: about a microsecond between
// events, varied so that every Stat gets distinct Min, Max and Sum.
func tick(i int) int64 { return 1000 + int64(i*7919%613) }

// referenceTiming is the documented slow path: one Timing.AddPath per event
// of a root-anchored Stepper walk, pairing event i with deltas[i].
func referenceTiming(f *grammar.Frozen, deltas []int64) *model.Timing {
	want := model.NewTiming()
	var walk progress.Stepper
	var refs []grammar.UserRef
	ok := walk.Start(f)
	for i := 0; ok && i < len(deltas); i++ {
		refs = walk.AppendRefs(refs[:0])
		want.AddPath(refs, walk.Terminal(), deltas[i])
		ok = walk.Advance() == progress.AdvanceOK
	}
	return want
}

// maxDepth returns the deepest progress sequence of the trace.
func maxDepth(f *grammar.Frozen) int {
	deepest := 0
	var walk progress.Stepper
	for ok := walk.Start(f); ok; ok = walk.Advance() == progress.AdvanceOK {
		deepest = max(deepest, walk.PosView().Depth())
	}
	return deepest
}

// encode serialises one thread's artifacts the way a trace file holds them.
func encode(t *testing.T, names []string, f *grammar.Frozen, tm *model.Timing) []byte {
	t.Helper()
	var buf bytes.Buffer
	ts := &model.TraceSet{Events: names, Threads: map[int32]*model.ThreadTrace{0: {Grammar: f, Timing: tm}}}
	if err := tracefile.Write(&buf, ts); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkReplay records stream on the synthetic clock, taking a checkpoint
// half way, and requires the Timing of both Finish and the checkpoint's
// Materialize (a prefix view of the delta log over a grammar frozen before
// the end) to equal the AddPath reference, as values and as trace-file bytes.
func checkReplay(t *testing.T, label string, names []string, stream []events.ID) {
	t.Helper()
	var now int64
	deltas := make([]int64, len(stream))
	r := recorder.New(recorder.WithClock(func() int64 { return now }))
	var mid recorder.Checkpoint
	for i, id := range stream {
		if i > 0 {
			deltas[i] = tick(i)
			now += deltas[i]
		}
		r.RecordAt(id, now)
		if i+1 == len(stream)/2 {
			mid = r.Checkpoint()
		}
	}
	th := r.Finish()
	for _, c := range []struct {
		what   string
		got    *model.ThreadTrace
		deltas []int64
	}{
		{"Finish", th, deltas},
		{"Checkpoint.Materialize", mid.Materialize(), deltas[:len(stream)/2]},
	} {
		if int(c.got.Grammar.EventCount) != len(c.deltas) {
			t.Fatalf("%s %s: grammar holds %d events, want %d", label, c.what, c.got.Grammar.EventCount, len(c.deltas))
		}
		want := referenceTiming(c.got.Grammar, c.deltas)
		if !reflect.DeepEqual(c.got.Timing, want) {
			t.Fatalf("%s %s: replay and AddPath reference disagree:\n%+v\n%+v", label, c.what, c.got.Timing, want)
		}
		if !bytes.Equal(encode(t, names, c.got.Grammar, c.got.Timing), encode(t, names, c.got.Grammar, want)) {
			t.Fatalf("%s %s: replay and AddPath reference encode to different trace files", label, c.what)
		}
	}
}

// TestTimingBuilderMatchesAddPath: the slot-indexed replay of Finish and
// Checkpoint.Materialize yields exactly the Timing an AddPath loop over the
// same walk yields, on every rank of the mix7 applications and on a trace
// nested deeper than MaxContextDepth.
func TestTimingBuilderMatchesAddPath(t *testing.T) {
	for _, name := range []string{"BT", "CG", "LU", "Lulesh", "Kripke", "AMG", "Quicksilver"} {
		app, err := apps.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, stream := range harness.CaptureStreams(app, apps.Small, 42) {
			reg := events.NewRegistry()
			ids := make([]events.ID, len(stream))
			for i, ev := range stream {
				ids[i] = reg.Intern(ev)
			}
			checkReplay(t, name, reg.Names(), ids)
		}
	}

	var deep []events.ID
	names := []string{"a", "b", "c", "d", "e", "f", "g"}
	for a := 0; a < 3; a++ {
		deep = append(deep, 0)
		for b := 0; b < 2+a%2; b++ {
			deep = append(deep, 1)
			for c := 0; c < 3; c++ {
				deep = append(deep, 2)
				for d := 0; d < 2+c%2; d++ {
					deep = append(deep, 3)
					for e := 0; e < 3; e++ {
						deep = append(deep, 4)
						for f := 0; f < 2; f++ {
							deep = append(deep, 5, 6)
						}
					}
				}
			}
		}
	}
	r := recorder.New(recorder.WithoutTimestamps())
	for _, id := range deep {
		r.Record(id)
	}
	if d := maxDepth(r.Finish().Grammar); d <= model.MaxContextDepth {
		t.Fatalf("hand-made trace nests %d deep, want more than MaxContextDepth (%d)", d, model.MaxContextDepth)
	}
	checkReplay(t, "deep", names, deep)
}

// nestedLoop records outer iterations of a three-level loop nest (about 100
// events each) on the synthetic clock.
func nestedLoop(outer int) *recorder.Recorder {
	var now int64
	i := 0
	r := recorder.New(recorder.WithClock(func() int64 { return now }))
	rec := func(id events.ID) {
		r.RecordAt(id, now)
		i++
		now += tick(i)
	}
	for o := 0; o < outer; o++ {
		rec(0)
		for m := 0; m < 6; m++ {
			rec(1)
			for in := 0; in < 5; in++ {
				rec(2)
				rec(3)
				rec(4)
			}
		}
		rec(5)
	}
	return r
}

// TestBuildThreadTraceAllocsByContexts: the replay allocates per distinct
// timing context (its key string, its map entry, the builder's growth), not
// per event — so the count is bounded by the contexts and stays put when the
// same loop runs ten times longer.
func TestBuildThreadTraceAllocsByContexts(t *testing.T) {
	measure := func(outer int) (allocs float64, contexts int, n int64) {
		ck := nestedLoop(outer).Checkpoint() // Freeze happens here, not in the measured replay
		th := ck.Materialize()
		return testing.AllocsPerRun(3, func() { ck.Materialize() }), len(th.Timing.BySuffix), th.Grammar.EventCount
	}
	short, contexts, n := measure(520)
	if n < 50_000 {
		t.Fatalf("recording holds %d events, want at least 50000", n)
	}
	if limit := float64(4*contexts + 32); short > limit {
		t.Errorf("replay of %d events, %d contexts: %.0f allocs, want at most %.0f", n, contexts, short, limit)
	}
	long, longContexts, longN := measure(5200)
	t.Logf("replay allocs: %.0f for %d events (%d contexts), %.0f for %d events (%d contexts)",
		short, n, contexts, long, longN, longContexts)
	if long > short+float64(4*max(0, longContexts-contexts)) {
		t.Errorf("replay allocs grew with the trace: %.0f for %d events (%d contexts), %.0f for %d events (%d contexts)",
			short, n, contexts, long, longN, longContexts)
	}
}
