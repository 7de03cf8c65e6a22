package recorder

import (
	"reflect"
	"testing"

	"repro/internal/events"
	"repro/internal/grammar"
	"repro/internal/model"
	"repro/internal/progress"
)

func TestRecordAndFinish(t *testing.T) {
	r := New(WithoutTimestamps())
	seq := []events.ID{0, 1, 1, 2, 1, 2, 0, 1}
	for _, e := range seq {
		r.Record(e)
	}
	if r.EventCount() != int64(len(seq)) {
		t.Fatalf("EventCount = %d, want %d", r.EventCount(), len(seq))
	}
	th := r.Finish()
	if th.Timing != nil {
		t.Fatal("timing model present despite WithoutTimestamps")
	}
	got := th.Grammar.Unfold()
	want := make([]int32, len(seq))
	for i, e := range seq {
		want[i] = int32(e)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("frozen grammar unfolds to %v, want %v", got, want)
	}
}

func TestVirtualClockTiming(t *testing.T) {
	// Event 0 happens, then 100ns later event 1, then 900ns later event 0,
	// repeatedly. The timing model must attribute ~100ns to event 1 and
	// ~900ns to the non-initial occurrences of event 0.
	var now int64
	r := New(WithClock(func() int64 { return now }))
	for i := 0; i < 50; i++ {
		r.RecordAt(0, now)
		now += 100
		r.RecordAt(1, now)
		now += 900
	}
	th := r.Finish()
	if th.Timing == nil {
		t.Fatal("no timing model recorded")
	}
	s1 := th.Timing.ByEvent[1]
	if s1.Count == 0 {
		t.Fatal("no stats for event 1")
	}
	if m := s1.Mean(); m < 99 || m > 101 {
		t.Fatalf("mean delta before event 1 = %v, want ~100", m)
	}
	s0 := th.Timing.ByEvent[0]
	// First occurrence has delta 0; the remaining 49 have 900.
	if m := s0.Mean(); m < 800 || m > 900 {
		t.Fatalf("mean delta before event 0 = %v, want ~882", m)
	}
}

func TestTimingPerContextGranularity(t *testing.T) {
	// Build the paper's Fig 6 situation: event b occurs in two contexts with
	// different preceding delays; the per-ref stats must keep them apart
	// while the per-event fallback averages them.
	var now int64
	r := New(WithClock(func() int64 { return now }))
	for i := 0; i < 40; i++ {
		// Context 1: a then b after 10ns, then c.
		r.RecordAt(0, now)
		now += 10
		r.RecordAt(1, now)
		now += 5
		r.RecordAt(2, now)
		now += 5
		// Context 2: a then b after 1000ns, then d.
		r.RecordAt(0, now)
		now += 1000
		r.RecordAt(1, now)
		now += 5
		r.RecordAt(3, now)
		now += 5
	}
	th := r.Finish()
	if th.Timing == nil {
		t.Fatal("no timing")
	}
	// The per-event mean mixes 10 and 1000.
	mix := th.Timing.ByEvent[1].Mean()
	if mix < 400 || mix > 600 {
		t.Fatalf("per-event mean = %v, want ~505", mix)
	}
	// Walking the reference trace, the context-aware lookup must separate
	// the two b contexts: ~10ns before the b followed by c, ~1000ns before
	// the b followed by d (paper Fig 6).
	var lo, hi bool
	f := th.Grammar
	var walk, scratch progress.Frontier
	var refs []grammar.UserRef
	for ok := walk.SetStart(f); ok; {
		if walk.Terminal(f, 0) == 1 {
			refs = walk.AppendRefs(0, refs[:0])
			m := th.Timing.MeanForPath(refs, 1)
			if m < 50 {
				lo = true
			}
			if m > 500 {
				hi = true
			}
		}
		_, res := walk.AdvanceLone(f, &scratch)
		ok = res == progress.AdvanceOK
	}
	if !lo || !hi {
		t.Fatalf("per-context stats did not separate the two contexts (lo=%v hi=%v)", lo, hi)
	}
}

// TestTimingReplayMatchesPositionWalk: buildThreadTrace replays the deltas
// through the grammar; on a nested-loop trace the Timing it yields is the
// one the allocating Position walk (progress.Start, progress.Successors)
// yields, key for key.
func TestTimingReplayMatchesPositionWalk(t *testing.T) {
	var now int64
	r := New(WithClock(func() int64 { return now }))
	record := func(id events.ID, dt int64) {
		r.RecordAt(id, now)
		now += dt
	}
	for outer := 0; outer < 12; outer++ {
		record(0, 7)
		for mid := 0; mid < 3+outer%2; mid++ {
			record(1, 11+int64(mid))
			for inner := 0; inner < 4; inner++ {
				record(2, 13)
				record(3, 17+int64(inner*outer))
			}
		}
		record(4, 19)
	}
	th := r.Finish()
	f, deltas := th.Grammar, r.deltas
	want := model.NewTiming()
	pos, ok := progress.Start(f)
	var refs []grammar.UserRef
	for i := 0; ok && i < len(deltas); i++ {
		refs = pos.AppendRefs(refs[:0])
		want.AddPath(refs, pos.Terminal(f), deltas[i])
		brs := progress.Successors(f, pos, 1)
		if ok = len(brs) > 0; ok {
			pos = brs[0].Pos
		}
	}
	if want.Contexts() < 10 {
		t.Fatalf("only %d timing contexts: the trace is not nested", want.Contexts())
	}
	if got, want := Canonical(th.Timing), Canonical(want); got != want {
		t.Fatalf("timing replay and position walk disagree:\n%s\n%s", got, want)
	}
}

func TestDefaultClockMonotonic(t *testing.T) {
	r := New()
	for i := 0; i < 100; i++ {
		r.Record(events.ID(i % 3))
	}
	th := r.Finish()
	if th.Timing == nil {
		t.Fatal("default recorder should carry timing")
	}
	th.Timing.EachContext(func(refs []grammar.UserRef, s model.Stat) {
		if s.Min < 0 {
			t.Fatalf("negative duration recorded in context %v: %+v", refs, s)
		}
	})
}

func TestEmptyRecorderFinish(t *testing.T) {
	r := New()
	th := r.Finish()
	if th.Grammar == nil {
		t.Fatal("nil grammar from empty recorder")
	}
	if th.Grammar.EventCount != 0 {
		t.Fatalf("EventCount = %d, want 0", th.Grammar.EventCount)
	}
}

func TestStatMergeAndBounds(t *testing.T) {
	var a, b model.Stat
	a.Add(5)
	a.Add(15)
	b.Add(100)
	a.Merge(b)
	if a.Count != 3 || a.Min != 5 || a.Max != 100 {
		t.Fatalf("merged stat = %+v", a)
	}
	if m := a.Mean(); m != 40 {
		t.Fatalf("mean = %v, want 40", m)
	}
	var empty model.Stat
	a.Merge(empty)
	if a.Count != 3 {
		t.Fatalf("merging empty changed count: %+v", a)
	}
	empty.Merge(a)
	if empty.Count != 3 {
		t.Fatalf("merge into empty: %+v", empty)
	}
}

func TestRuleCountGrowsWithIrregularity(t *testing.T) {
	reg := New(WithoutTimestamps())
	for i := 0; i < 1000; i++ {
		reg.Record(events.ID(i % 3))
	}
	regular := reg.RuleCount()

	irr := New(WithoutTimestamps())
	state := uint32(12345)
	for i := 0; i < 1000; i++ {
		state = state*1664525 + 1013904223
		irr.Record(events.ID(state % 16))
	}
	irregular := irr.RuleCount()
	if irregular <= regular {
		t.Fatalf("irregular trace rules (%d) not larger than regular (%d)", irregular, regular)
	}
}

func TestSnapshotMidRun(t *testing.T) {
	var now int64
	r := New(WithClock(func() int64 { return now }))
	for i := 0; i < 30; i++ {
		r.RecordAt(events.ID(i%2), now)
		now += 100
	}
	snap := r.Checkpoint().Materialize()
	if snap.Grammar.EventCount != 30 {
		t.Fatalf("snapshot has %d events, want 30", snap.Grammar.EventCount)
	}
	if snap.Timing == nil {
		t.Fatal("snapshot lost timing")
	}
	// Recording continues unaffected.
	for i := 0; i < 30; i++ {
		r.RecordAt(events.ID(i%2), now)
		now += 100
	}
	final := r.Finish()
	if final.Grammar.EventCount != 60 {
		t.Fatalf("final trace has %d events, want 60", final.Grammar.EventCount)
	}
	// The snapshot is unaffected by later events.
	if snap.Grammar.EventCount != 30 {
		t.Fatal("snapshot mutated by later recording")
	}
}
