package recorder_test

import (
	"bytes"
	"fmt"
	"sort"
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
// of a root-anchored walk, pairing event i with deltas[i].
func referenceTiming(f *grammar.Frozen, deltas []int64) *model.Timing {
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

// maxDepth returns the deepest progress sequence of the trace.
func maxDepth(f *grammar.Frozen) int {
	deepest := 0
	var walk, scratch progress.Frontier
	var refs []grammar.UserRef
	for ok := walk.SetStart(f); ok; {
		refs = walk.AppendRefs(0, refs[:0])
		deepest = max(deepest, len(refs))
		_, res := walk.AdvanceLone(f, &scratch)
		ok = res == progress.AdvanceOK
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
		if got, want := recorder.Canonical(c.got.Timing), recorder.Canonical(want); got != want {
			t.Fatalf("%s %s: replay and AddPath reference disagree:\n%s\n%s", label, c.what, got, want)
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
// timing context (the growth of the context table), not per event — so the count is bounded by the contexts and stays put when the
// same loop runs ten times longer.
func TestBuildThreadTraceAllocsByContexts(t *testing.T) {
	measure := func(outer int) (allocs float64, contexts int, n int64) {
		ck := nestedLoop(outer).Checkpoint() // Freeze happens here, not in the measured replay
		th := ck.Materialize()
		return testing.AllocsPerRun(3, func() { ck.Materialize() }), th.Timing.Contexts(), th.Grammar.EventCount
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

// memoCap mirrors the longest loop body the replay memoises (memoCap in
// internal/model): FuzzTimingReplayDiff builds bodies just under and over it.
const memoCap = 8192

// replayStream builds an event stream from data, one piece per byte (its low
// two bits choose the kind, the rest and the next bytes parametrise it),
// until data or a 40 000-event budget runs out:
//   - noise: one event of 64;
//   - a terminal run: one of 8 events, 1..64 times;
//   - a loop nest 1..7 levels deep (deeper than MaxContextDepth): each level
//     a header, 1..4 iterations of the next level and a trailer, the
//     innermost two events, one fuzz-chosen innermost pass with an extra
//     noise event;
//   - a cap loop (the first one only): 2 or 3 iterations of a body of
//     memoCap-2, memoCap or memoCap+2 events — a header, (x y)^k, a trailer.
func replayStream(data []byte) []events.ID {
	const budget = 40_000
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	var s []events.ID
	capped := false
	for len(data) > 0 && len(s) < budget {
		b := next()
		switch b & 3 {
		case 0:
			s = append(s, events.ID(b>>2))
		case 1:
			for n := 1 + next()%64; n > 0; n-- {
				s = append(s, events.ID(64+(b>>2)%8))
			}
		case 2:
			depth := 1 + (b>>2)%7
			iters := make([]int, depth)
			for i := range iters {
				iters[i] = 1 + next()%4
			}
			noisy, pass := next(), 0
			var level func(d int)
			level = func(d int) {
				s = append(s, events.ID(80+d))
				if d == depth {
					s = append(s, 96, 97)
					if pass == noisy {
						s = append(s, events.ID(98+pass%4))
					}
					pass++
				} else {
					for range iters[d] {
						level(d + 1)
					}
				}
				s = append(s, events.ID(88+d))
			}
			level(0)
		case 3:
			if capped {
				continue
			}
			capped = true
			length := memoCap + 2*((b>>2)%3-1)
			for range 2 + (b>>4)%2 {
				s = append(s, 104)
				for range length/2 - 1 {
					s = append(s, 105, 106)
				}
				s = append(s, 107)
			}
		}
	}
	return s
}

// replayCuts returns the prefix lengths of an n-event trace f to replay:
// every one for a short trace; else the first and last 64, and around the
// start and end of the first three and last two iterations of every run in
// the root body and in the bodies of those iterations (one event either
// side: inside the run or iteration, at its edge, past it), thinned evenly
// to at most 256.
func replayCuts(f *grammar.Frozen, n int) []int {
	if n <= 512 {
		cuts := make([]int, n+1)
		for k := range cuts {
			cuts[k] = k
		}
		return cuts
	}
	set := map[int]bool{}
	add := func(at int64) {
		for k := int(at) - 1; k <= int(at)+1; k++ {
			if k >= 0 && k <= n {
				set[k] = true
			}
		}
	}
	for k := 0; k <= 64; k++ {
		add(int64(k))
		add(int64(n - k))
	}
	var walk func(rule int32, at int64, depth int)
	walk = func(rule int32, at int64, depth int) {
		for _, run := range f.Rules[rule].Body {
			l, c := f.SymLen(run.Sym), int64(run.Count)
			for j := int64(0); j < c; j++ {
				if j < 3 || j >= c-2 {
					add(at + j*l)
					if depth < 2 && !run.Sym.IsTerminal() {
						walk(run.Sym.RuleIndex(), at+j*l, depth+1)
					}
				}
			}
			at += c * l
			add(at)
		}
	}
	walk(0, 0, 0)
	cuts := make([]int, 0, len(set))
	for k := range set {
		cuts = append(cuts, k)
	}
	sort.Ints(cuts)
	if len(cuts) > 256 {
		thin := make([]int, 0, 256)
		for i := 0; i < 256; i++ {
			thin = append(thin, cuts[i*len(cuts)/256])
		}
		cuts = thin
	}
	return cuts
}

// replaySeeds: loop nests cut everywhere, deep and noisy nests, the two
// sides of the memo cap and a mix.
var replaySeeds = [][]byte{
	// A 3-level nest (3, 2, 3 iterations) replayed at every prefix: cuts
	// inside a memoised body's first iteration and part way through its
	// later ones.
	{0x0a, 0x02, 0x01, 0x02, 0xff},
	// A 7-level nest with noise in the fifth innermost pass, then noise.
	{0x1a, 0x01, 0x00, 0x01, 0x00, 0x01, 0x00, 0x01, 0x04, 0x10, 0x14},
	// Three iterations of a body of exactly memoCap events.
	{0x13},
	// Two iterations of a body of memoCap+2 events, a terminal run, noise.
	{0x0b, 0x05, 0x20, 0x08},
	// Terminal runs and noise around a 2-level nest with its noise pass.
	{0x05, 0x03, 0x0d, 0x40, 0x04, 0x06, 0x03, 0x01, 0x02, 0x0c, 0x11, 0x07},
}

// FuzzTimingReplayDiff holds the memoised, folding timing replay to the
// per-event AddPath reference: Finish and a half-way Checkpoint.Materialize
// as checkReplay checks them, then TimingBuilder.Replay of every cut of the
// delta log through the final grammar (the exhaustion case: fewer deltas
// than the trace unfolds to), as Timing values and as trace-file bytes.
func FuzzTimingReplayDiff(f *testing.F) {
	for _, s := range replaySeeds {
		f.Add(s)
	}
	names := make([]string, 128)
	for i := range names {
		names[i] = fmt.Sprintf("e%d", i)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		stream := replayStream(data)
		if len(stream) < 2 { // checkReplay checkpoints half way
			return
		}
		checkReplay(t, "fuzz", names, stream)

		r := recorder.New(recorder.WithoutTimestamps())
		for _, id := range stream {
			r.Record(id)
		}
		g := r.Finish().Grammar
		deltas := make([]int64, len(stream))
		for i := 1; i < len(deltas); i++ {
			deltas[i] = tick(i)
		}
		want := model.NewTiming()
		var walk, scratch progress.Frontier
		var refs []grammar.UserRef
		ok, i := walk.SetStart(g), 0
		for _, k := range replayCuts(g, len(stream)) {
			for ; ok && i < k; i++ {
				refs = walk.AppendRefs(0, refs[:0])
				want.AddPath(refs, walk.Terminal(g, 0), deltas[i])
				_, res := walk.AdvanceLone(g, &scratch)
				ok = res == progress.AdvanceOK
			}
			var b model.TimingBuilder
			b.Replay(g, deltas[:k])
			got := b.Timing()
			if got, want := recorder.Canonical(got), recorder.Canonical(want); got != want {
				t.Fatalf("replay of %d of %d deltas and the reference disagree:\n%s\n%s", k, len(deltas), got, want)
			}
			if !bytes.Equal(encode(t, names, g, got), encode(t, names, g, want)) {
				t.Fatalf("replay of %d of %d deltas and the reference encode to different trace files", k, len(deltas))
			}
		}
	})
}
