package grammar_test

import (
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/events"
	"repro/internal/grammar"
	"repro/internal/recorder"
)

// newRecorder returns a recorder with a synthetic clock of one microsecond
// a reading, so that two recordings' timing models are comparable; with
// reference set, its grammar runs the reduction alone.
func newRecorder(reference bool, opts ...recorder.Option) *recorder.Recorder {
	var now int64
	clock := func() int64 { now += 1000; return now }
	r := recorder.New(append([]recorder.Option{recorder.WithClock(clock)}, opts...)...)
	if reference {
		grammar.ConfirmOff(r.Grammar())
	}
	return r
}

// firstRanks returns rank 0 of every mix7 application at class small, cut
// to at most limit events.
func firstRanks(t *testing.T, limit int) map[string][]int32 {
	out := make(map[string][]int32, len(mix7))
	for _, name := range mix7 {
		s := rankStreams(t, name, apps.Small)[0]
		out[name] = s[:min(len(s), limit)]
	}
	return out
}

// TestConfirmBudgetTruncation: a grammar budget set anywhere between a
// loop's steady size and its transient peak truncates the recording at the
// same event, with the same cause and the same trace, whether the fast path
// counts the loop or the reduction rebuilds it. The budgets tried sit just
// below every rule count and every node count the reduction reports that is
// at least the final one, for rank 0 of each mix7 application.
func TestConfirmBudgetTruncation(t *testing.T) {
	for name, stream := range firstRanks(t, 1<<20) {
		// The reduction's own run: rule and node counts after every event.
		ref := newRecorder(true)
		rules := make([]int, len(stream))
		nodes := make([]int, len(stream))
		for i, id := range stream {
			ref.Record(events.ID(id))
			rules[i], nodes[i] = ref.Grammar().RuleCount(), ref.Grammar().NodeCount()
		}
		budgets := map[[2]int]bool{}
		for i := range stream {
			if rules[i] >= rules[len(stream)-1] {
				budgets[[2]int{rules[i] - 1, 0}] = true
			}
			if nodes[i] >= nodes[len(stream)-1] {
				budgets[[2]int{0, nodes[i] - 1}] = true
			}
		}
		for b := range budgets {
			budget := recorder.WithGrammarBudget(b[0], b[1])
			fast, ref := newRecorder(false, budget), newRecorder(true, budget)
			for _, id := range stream {
				fast.Record(events.ID(id))
				ref.Record(events.ID(id))
			}
			if fast.Grammar().EventCount() != ref.Grammar().EventCount() || fast.TruncationCause() != ref.TruncationCause() {
				t.Fatalf("%s, budget %v: truncated after %d events (%q), reference after %d (%q)", name, b,
					fast.Grammar().EventCount(), fast.TruncationCause(), ref.Grammar().EventCount(), ref.TruncationCause())
			}
			if !reflect.DeepEqual(fast.Finish(), ref.Finish()) {
				t.Fatalf("%s, budget %v: traces differ", name, b)
			}
		}
		if len(budgets) == 0 {
			t.Fatalf("%s: no budget to try", name)
		}
	}
}

// TestConfirmCheckpoints: with a checkpoint every 7, 64 and 512 events,
// every Checkpoint.Materialize() and the final trace are identical with the
// fast path on and off.
func TestConfirmCheckpoints(t *testing.T) {
	streams := firstRanks(t, 4096)
	for _, every := range []int64{7, 64, 512} {
		for name, stream := range streams {
			var got, want []recorder.Checkpoint
			fast := newRecorder(false, recorder.WithCheckpointSink(every, func(c recorder.Checkpoint) { got = append(got, c) }))
			ref := newRecorder(true, recorder.WithCheckpointSink(every, func(c recorder.Checkpoint) { want = append(want, c) }))
			for _, id := range stream {
				fast.Record(events.ID(id))
				ref.Record(events.ID(id))
			}
			if len(got) != len(want) || int64(len(got)) != int64(len(stream))/every {
				t.Fatalf("%s every %d: %d checkpoints, reference %d", name, every, len(got), len(want))
			}
			for i := range got {
				a, b := got[i].Materialize(), want[i].Materialize()
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("%s every %d: checkpoint %d (%d events) differs", name, every, i, got[i].Events())
				}
			}
			if a, b := fast.Finish(), ref.Finish(); !reflect.DeepEqual(a, b) {
				t.Fatalf("%s every %d: final traces differ", name, every)
			}
		}
	}
}
