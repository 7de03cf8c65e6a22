package predictor

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/grammar"
	"repro/internal/model"
	"repro/internal/progress"
)

// timedTraceOf is traceOf with a synthetic timing model attached: each event
// id gets a distinct per-site duration so that ExpectedNs differences between
// the engine and the reference cannot hide behind zeros.
func timedTraceOf(seq []int32) *model.Trace {
	g := grammar.New()
	maxID := int32(0)
	for _, e := range seq {
		g.Append(e)
		if e > maxID {
			maxID = e
		}
	}
	f := g.Freeze()
	timing := model.NewTiming()
	for ev := int32(0); ev <= maxID; ev++ {
		for _, ref := range f.TermSites[ev] {
			// Deliberately non-round values: float64 sums of these expose
			// any change in accumulation order at the last bit.
			timing.AddPath([]grammar.UserRef{ref}, ev, 137+int64(ev)*311+int64(ref.Rule)*17)
		}
	}
	names := make([]string, maxID+1)
	for i := range names {
		names[i] = "e" + string(rune('A'+i%26))
	}
	return &model.Trace{Grammar: f, Events: names, Timing: timing}
}

// oracle is what a differential schedule drives: the engine predictor and
// the allocating reference.
type oracle interface {
	StartAtBeginning()
	Reset()
	Observe(eventID int32)
	PredictAt(distance int) (Prediction, bool)
	PredictSequence(n int) []Prediction
	PredictDurationUntil(eventID int32, maxDistance int) (Prediction, bool)
	PredictDistribution(distance int) []Alternative
	ExpectedPath(maxDistance int) []PathStep
	Stats() Stats
	Tracking() bool
	Anchored() bool
	Candidates() int
	Confidence() float64
}

// diffOp is one step of a differential schedule: an observation or a query
// applied identically to both predictors.
type diffOp struct {
	// 0 observe, 1 PredictAt, 2 PredictSequence, 3 PredictDurationUntil,
	// 4 StartAtBeginning, 5 Reset, 6 PredictDistribution, 7 ExpectedPath
	kind    int
	event   int32
	arg     int
	queryEv int32
}

// buildSchedule derives a randomized noisy replay of seq: mostly faithful
// observations, with unexpected-but-known events, unknown events, skips and
// restarts injected, and queries of every kind sprinkled between steps.
func buildSchedule(rng *rand.Rand, seq []int32, maxID int32, steps int) []diffOp {
	var ops []diffOp
	ops = append(ops, diffOp{kind: 4}) // StartAtBeginning
	i := 0
	for len(ops) < steps {
		r := rng.Float64()
		switch {
		case r < 0.60: // faithful next event
			ops = append(ops, diffOp{kind: 0, event: seq[i%len(seq)]})
			i++
		case r < 0.68: // unexpected but known event: forces re-anchoring
			ops = append(ops, diffOp{kind: 0, event: seq[rng.Intn(len(seq))]})
			i += rng.Intn(3)
		case r < 0.72: // unknown event: drops all hypotheses
			ops = append(ops, diffOp{kind: 0, event: maxID + 1 + int32(rng.Intn(3))})
		case r < 0.74: // skip ahead without telling the predictor
			i += 1 + rng.Intn(4)
		case r < 0.76:
			ops = append(ops, diffOp{kind: 4}) // StartAtBeginning
			i = 0
		case r < 0.77:
			ops = append(ops, diffOp{kind: 5}) // Reset
		default:
			ops = append(ops, randomQuery(rng, maxID))
		}
	}
	return ops
}

// randomQuery draws one query of any kind, PredictAt most often.
func randomQuery(rng *rand.Rand, maxID int32) diffOp {
	switch r := rng.Float64(); {
	case r < 0.40:
		return diffOp{kind: 1, arg: 1 + rng.Intn(80)}
	case r < 0.60:
		return diffOp{kind: 2, arg: 1 + rng.Intn(40)}
	case r < 0.80:
		return diffOp{kind: 3, arg: 1 + rng.Intn(60), queryEv: int32(rng.Intn(int(maxID) + 2))}
	case r < 0.92:
		return diffOp{kind: 6, arg: 1 + rng.Intn(24)}
	default:
		return diffOp{kind: 7, arg: 1 + rng.Intn(24)}
	}
}

// runDifferential executes the schedule against two predictors and fails on
// the first observable divergence. Every query result must be byte-identical
// (reflect.DeepEqual on the values, including ExpectedNs and Probability at
// full float64 precision and nil against empty), and the tracking state
// (Stats, Tracking, Anchored, Candidates, Confidence) must match after every
// step. It returns how many queries ran and how many of them with more than
// one hypothesis tracked.
func runDifferential(t testing.TB, got, want oracle, ops []diffOp) (queries, multi int) {
	t.Helper()
	for step, op := range ops {
		var g, w any
		switch op.kind {
		case 0:
			got.Observe(op.event)
			want.Observe(op.event)
		case 1:
			gp, gok := got.PredictAt(op.arg)
			wp, wok := want.PredictAt(op.arg)
			g, w = []any{gp, gok}, []any{wp, wok}
		case 2:
			g, w = got.PredictSequence(op.arg), want.PredictSequence(op.arg)
		case 3:
			gp, gok := got.PredictDurationUntil(op.queryEv, op.arg)
			wp, wok := want.PredictDurationUntil(op.queryEv, op.arg)
			g, w = []any{gp, gok}, []any{wp, wok}
		case 4:
			got.StartAtBeginning()
			want.StartAtBeginning()
		case 5:
			got.Reset()
			want.Reset()
		case 6:
			g, w = got.PredictDistribution(op.arg), want.PredictDistribution(op.arg)
		case 7:
			g, w = got.ExpectedPath(op.arg), want.ExpectedPath(op.arg)
		}
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("step %d: query %+v diverged:\ngot:  %+v\nwant: %+v", step, op, g, w)
		}
		if g != nil {
			queries++
			if want.Candidates() > 1 {
				multi++
			}
		}
		if got.Stats() != want.Stats() {
			t.Fatalf("step %d (op %d): stats diverged: got %+v, want %+v",
				step, op.kind, got.Stats(), want.Stats())
		}
		if got.Tracking() != want.Tracking() || got.Anchored() != want.Anchored() ||
			got.Candidates() != want.Candidates() || got.Confidence() != want.Confidence() {
			t.Fatalf("step %d (op %d): tracking state diverged: got (%v,%v,%d,%v), want (%v,%v,%d,%v)",
				step, op.kind,
				got.Tracking(), got.Anchored(), got.Candidates(), got.Confidence(),
				want.Tracking(), want.Anchored(), want.Candidates(), want.Confidence())
		}
	}
	return queries, multi
}

// motifTraces are the reference executions of the noisy-replay schedules:
// loops with shared prefixes, so that a re-anchor is ambiguous for a while,
// and the loop of wideBranchSeq.
func motifTraces() (seqs [][]int32, maxIDs []int32) {
	for _, motif := range [][]int32{
		{0, 1, 2, 1, 2, 3},
		{0, 1, 0, 2, 0, 1, 0, 3},
		{5, 5, 5, 1, 2, 5, 5, 5, 1, 2},
		{0, 1, 2, 3, 4, 5, 6, 7},
	} {
		var seq []int32
		for r := 0; r < 60; r++ {
			seq = append(seq, motif...)
		}
		seqs = append(seqs, seq)
	}
	seqs = append(seqs, wideBranchSeq())
	for _, seq := range seqs {
		maxIDs = append(maxIDs, slices.Max(seq))
	}
	return seqs, maxIDs
}

// TestDifferentialCachedVsReference pins the central property of the
// incremental prediction window, the predictor's cache of future events kept
// across observations: with it the predictor is observationally identical to
// the allocating reference on noisy replays — same predictions bit for bit,
// same tracking statistics — across many randomized schedules.
func TestDifferentialCachedVsReference(t *testing.T) {
	seqs, maxIDs := motifTraces()
	for mi, seq := range seqs {
		tr := timedTraceOf(seq)
		for seed := int64(0); seed < 8; seed++ {
			rng := rand.New(rand.NewSource(seed*1000 + int64(mi)))
			ops := buildSchedule(rng, seq, maxIDs[mi], 600)
			runDifferential(t, New(tr, Config{}), newRef(tr, Config{}), ops)
		}
	}
}

// wideBranchSeq is 3 (0 1 2)^60: the loop body's only user is the repeated
// run that ends the root. A hypothesis re-anchored inside the body, once it
// finishes the body, either re-enters it or leaves the run — and leaving
// ends the trace — so AdvanceLone gives up at a step where Successors(pos,
// 1) has one successor.
func wideBranchSeq() []int32 {
	seq := []int32{3}
	for r := 0; r < 60; r++ {
		seq = append(seq, 0, 1, 2)
	}
	return seq
}

// TestDifferentialExactReplay is the dense-query faithful-replay case: after
// every observation, query every distance up to the remaining trace and
// beyond. This is where the window serves nearly every query, so any window
// bookkeeping bug (off-by-one head, stale end position) shows up immediately.
func TestDifferentialExactReplay(t *testing.T) {
	var seq []int32
	for r := 0; r < 40; r++ {
		seq = append(seq, 0, 1, 2, 1, 2, 3)
	}
	tr := timedTraceOf(seq)
	p := New(tr, Config{})
	ref := newRef(tr, Config{})
	p.StartAtBeginning()
	ref.StartAtBeginning()
	for i, e := range seq {
		p.Observe(e)
		ref.Observe(e)
		for _, d := range []int{1, 2, 3, 5, 8, 13, 21, 34, 55, len(seq) - i, len(seq) - i + 1} {
			if d < 1 {
				continue
			}
			gp, gok := p.PredictAt(d)
			wp, wok := ref.PredictAt(d)
			if gok != wok || !reflect.DeepEqual(gp, wp) {
				t.Fatalf("step %d: PredictAt(%d) diverged:\ngot: %+v %v\nref: %+v %v",
					i, d, gp, gok, wp, wok)
			}
		}
		gs := p.PredictSequence(24)
		ws := ref.PredictSequence(24)
		if !reflect.DeepEqual(gs, ws) {
			t.Fatalf("step %d: PredictSequence diverged:\ngot: %+v\nref: %+v", i, gs, ws)
		}
	}
}

// TestDifferentialQueryPurity checks that queries are pure: two
// predictors observing the same stream — one queried heavily at every step,
// one never queried — must end in the same observable state and produce the
// same subsequent predictions. This is the regression test for scratch-buffer
// aliasing between the query path and setCands under re-anchoring: a query
// that leaks state into the tracking buffers desynchronizes the two.
func TestDifferentialQueryPurity(t *testing.T) {
	var seq []int32
	for r := 0; r < 50; r++ {
		seq = append(seq, 0, 1, 2, 1, 2, 3)
	}
	tr := timedTraceOf(seq)
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		queried := New(tr, Config{})
		control := New(tr, Config{})
		queried.StartAtBeginning()
		control.StartAtBeginning()
		i := 0
		for step := 0; step < 400; step++ {
			var ev int32
			switch r := rng.Float64(); {
			case r < 0.75:
				ev = seq[i%len(seq)]
				i++
			case r < 0.9: // unexpected known event: re-anchor while queries interleave
				ev = seq[rng.Intn(len(seq))]
				i += rng.Intn(4)
			default: // unknown event, then resume
				ev = 100 + int32(rng.Intn(2))
			}
			queried.Observe(ev)
			control.Observe(ev)
			// Hammer the queried predictor only.
			for _, d := range []int{1, 3, 17, 64} {
				queried.PredictAt(d)
			}
			queried.PredictSequence(9)
			queried.PredictDurationUntil(seq[rng.Intn(len(seq))], 32)
			if queried.Stats() != control.Stats() {
				t.Fatalf("seed %d step %d: queries changed tracking stats: %+v vs %+v",
					seed, step, queried.Stats(), control.Stats())
			}
			if queried.Candidates() != control.Candidates() || queried.Confidence() != control.Confidence() {
				t.Fatalf("seed %d step %d: queries changed hypothesis set: (%d,%v) vs (%d,%v)",
					seed, step, queried.Candidates(), queried.Confidence(),
					control.Candidates(), control.Confidence())
			}
			gp, gok := queried.PredictAt(1)
			wp, wok := control.PredictAt(1)
			if gok != wok || !reflect.DeepEqual(gp, wp) {
				t.Fatalf("seed %d step %d: post-query predictions diverged: %+v %v vs %+v %v",
					seed, step, gp, gok, wp, wok)
			}
		}
	}
}

// TestWindowTakesWideBranchRule: re-anchored inside the loop of
// wideBranchSeq, a lone hypothesis reaches a step where AdvanceLone gives up
// but Successors(pos, 1) leaves one successor. The window walks on through
// it by that rule to the end of the trace: every PredictAt equals the
// reference's, and no query runs the frontier walk.
func TestWindowTakesWideBranchRule(t *testing.T) {
	seq := wideBranchSeq()
	tr := timedTraceOf(seq)
	f := tr.Grammar
	// The shape: at the body's last event, the in-place advance gives up
	// and the reference has one successor.
	occ := progress.Occurrences(f, 2)
	var at, scratch progress.Frontier
	if !at.SetOccurrences(f, 2) || at.Len() != 1 || len(occ) != 1 {
		t.Fatalf("event 2 has %d re-anchor hypotheses, want 1:\n%s", at.Len(), f.Dump(nil))
	}
	if _, res := at.AdvanceLone(f, &scratch); res != progress.AdvanceBranch {
		t.Fatalf("AdvanceLone at the end of the body = %v, want AdvanceBranch", res)
	}
	if brs := progress.Successors(f, occ[0].Pos, 1); len(brs) != 1 {
		t.Fatalf("Successors at the end of the body: %d, want 1", len(brs))
	}

	p, ref := New(tr, Config{}), newRef(tr, Config{})
	p.Observe(1)
	ref.Observe(1)
	last := 0
	for d := 1; d <= len(seq); d++ {
		gp, gok := p.PredictAt(d)
		wp, wok := ref.PredictAt(d)
		if gok != wok || !reflect.DeepEqual(gp, wp) {
			t.Fatalf("PredictAt(%d): got %+v %v, reference %+v %v", d, gp, gok, wp, wok)
		}
		if gok {
			last = d
		}
	}
	if last < 3*50 {
		t.Fatalf("predictions end at distance %d, want the rest of the loop", last)
	}
	if p.look.valid || cap(p.look.steps) != 0 {
		t.Fatalf("a query ran the frontier walk (%d steps memoised)", len(p.look.steps))
	}
}
