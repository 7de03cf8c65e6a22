package model_test

import (
	"runtime"
	"sort"
	"testing"

	"repro/internal/apps"
	"repro/internal/events"
	"repro/internal/grammar"
	"repro/internal/harness"
	"repro/internal/model"
	"repro/internal/progress"
	"repro/internal/recorder"
)

// tick is the synthetic clock of these tests: about a microsecond between
// events, varied so that every Stat gets distinct Min, Max and Sum.
func tick(i int) int64 { return 1000 + int64(i*7919%613) }

// reference is the per-event form of Replay: one Timing.AddPath per event
// of a root-anchored walk, pairing event i with deltas[i].
func reference(f *grammar.Frozen, deltas []int64) *model.Timing {
	want := model.NewTiming()
	var walk, scratch progress.Frontier
	var refs []grammar.UserRef
	ok := walk.SetStart(f)
	for i := 0; ok && i < len(deltas); i++ {
		refs = walk.AppendRefs(0, refs[:0])
		want.AddPath(refs, walk.Terminal(f, 0), deltas[i])
		_, res := walk.AdvanceLone(f, &scratch)
		ok = res == progress.AdvanceOK
	}
	return want
}

// record records stream on the synthetic clock and returns the recorder and
// the deltas it logged.
func record(stream []int32) (*recorder.Recorder, []int64) {
	var now int64
	deltas := make([]int64, len(stream))
	r := recorder.New(recorder.WithClock(func() int64 { return now }))
	for i, id := range stream {
		if i > 0 {
			deltas[i] = tick(i)
			now += deltas[i]
		}
		r.RecordAt(events.ID(id), now)
	}
	return r, deltas
}

// capLoop returns iters iterations of a loop body of exactly length events
// (length even): a header, (a b) repeated, a trailer.
func capLoop(length, iters int) []int32 {
	var s []int32
	for range iters {
		s = append(s, 0)
		for range length/2 - 1 {
			s = append(s, 1, 2)
		}
		s = append(s, 3)
	}
	return s
}

// TestReplayMemoCap: a loop body of exactly the memo cap is memoised whole,
// one of three times the cap is walked with its inner loop memoised; both
// replay to the reference Timing, their replays allocate the same whether
// the body runs 3 or 30 times, and the memo never grows past the cap.
func TestReplayMemoCap(t *testing.T) {
	for _, c := range []struct {
		name   string
		length int
		walked func(iters int) int // body iterations walked, the others folded
	}{
		{"at-cap", model.MemoCap, func(int) int { return 1 }},
		{"3x-cap", 3 * model.MemoCap, func(iters int) int { return iters }},
	} {
		var allocs [2]float64
		for i, iters := range []int{3, 30} {
			r, deltas := record(capLoop(c.length, iters))
			f := r.Finish().Grammar
			if body := f.Rules[0].Body; len(body) != 1 || body[0].Count != uint32(iters) || f.SymLen(body[0].Sym) != int64(c.length) {
				t.Fatalf("%s: root is not one run of the %d-event body:\n%s", c.name, c.length, f.Dump(nil))
			}
			var b model.TimingBuilder
			b.Replay(f, deltas)
			if got, want := b.Timing(), reference(f, deltas); model.Canonical(got) != model.Canonical(want) {
				t.Fatalf("%s x%d: replay and reference disagree", c.name, iters)
			}
			if n := model.MemoLen(&b); n > model.MemoCap {
				t.Fatalf("%s x%d: memo holds %d events, cap %d", c.name, iters, n, model.MemoCap)
			}
			// A walked body iteration folds its (a b) loop but for the first pass.
			walked := c.walked(iters)
			if got, want := model.Memoised(&b), int64((iters-walked)*c.length+walked*(c.length-4)); got != want {
				t.Fatalf("%s x%d: %d events folded from a memo, want %d", c.name, iters, got, want)
			}
			ck := r.Checkpoint()
			allocs[i] = testing.AllocsPerRun(3, func() { ck.Materialize() })
		}
		if allocs[1] > allocs[0] {
			t.Errorf("%s: replay allocs grew with the iterations: %.0f for 3, %.0f for 30", c.name, allocs[0], allocs[1])
		}
	}
}

// mix7 is the benchmark's record set: five regular applications and two
// whose control flow depends on the seed.
var mix7 = []string{"BT", "CG", "LU", "Lulesh", "Kripke", "AMG", "Quicksilver"}

// rankStreams captures app at class and returns its rank streams as
// interned event ids, ranks in order.
func rankStreams(tb testing.TB, name string, class apps.Class) [][]int32 {
	tb.Helper()
	app, err := apps.ByName(name)
	if err != nil {
		tb.Fatal(err)
	}
	byTID := harness.CaptureStreams(app, class, 42)
	tids := make([]int32, 0, len(byTID))
	for tid := range byTID {
		tids = append(tids, tid)
	}
	sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })
	out := make([][]int32, len(tids))
	for i, tid := range tids {
		reg := events.NewRegistry()
		for _, ev := range byTID[tid] {
			out[i] = append(out[i], int32(reg.Intern(ev)))
		}
	}
	return out
}

var finishSink *model.ThreadTrace

// BenchmarkFinishApps finishes a timed recording of every rank of each mix7
// application at class medium — Freeze plus the timing replay — and
// reports the cost per event and the share of events the replay folded from
// a memo instead of walking:
//
//	go test -run '^$' -bench FinishApps -benchtime 20x ./internal/model
func BenchmarkFinishApps(b *testing.B) {
	for _, name := range mix7 {
		var recs []*recorder.Recorder
		var n, memoised int64
		for _, s := range rankStreams(b, name, apps.Medium) {
			r, deltas := record(s)
			var tb model.TimingBuilder
			tb.Replay(r.Finish().Grammar, deltas)
			recs = append(recs, r)
			n += int64(len(s))
			memoised += model.Memoised(&tb)
		}
		runtime.GC()
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, r := range recs {
					finishSink = r.Finish()
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*n), "ns/event")
			b.ReportMetric(100*float64(memoised)/float64(n), "memo%")
		})
	}
}
