package progress

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/grammar"
)

// refMerge is the reference of MergeCap: first-seen merge over Key strings,
// weighted-average accumulated time, stable sort, cap, renormalise.
func refMerge(brs []Branch, accs []float64, max int, renorm bool) ([]Branch, []float64) {
	type entry struct {
		br  Branch
		acc float64
	}
	byKey := map[string]int{}
	var out []entry
	for i, b := range brs {
		if j, ok := byKey[b.Pos.Key()]; ok {
			if w1, w2 := out[j].br.Weight, b.Weight; w1+w2 > 0 {
				out[j].acc = (out[j].acc*w1 + accs[i]*w2) / (w1 + w2)
			}
			out[j].br.Weight += b.Weight
			continue
		}
		byKey[b.Pos.Key()] = len(out)
		out = append(out, entry{b, accs[i]})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].br.Weight > out[j].br.Weight })
	if len(out) > max {
		out = out[:max]
	}
	if renorm {
		var total float64
		for _, e := range out {
			total += e.br.Weight
		}
		if total > 0 {
			for i := range out {
				out[i].br.Weight /= total
			}
		}
	}
	brs, accs = nil, nil
	for _, e := range out {
		brs = append(brs, e.br)
		accs = append(accs, e.acc)
	}
	return brs, accs
}

// sameFrontier requires fr to hold exactly brs, in order, weights and
// accumulated times equal to the last bit.
func sameFrontier(t *testing.T, what string, f *grammar.Frozen, fr *Frontier, brs []Branch, accs []float64) {
	t.Helper()
	if fr.Len() != len(brs) {
		t.Fatalf("%s: %d hypotheses, want %d", what, fr.Len(), len(brs))
	}
	for i, b := range brs {
		if got := fr.View(i); got.Key() != b.Pos.Key() || fr.Weight(i) != b.Weight || fr.Acc(i) != accs[i] {
			t.Fatalf("%s: hypothesis %d is %v w=%v acc=%v, want %v w=%v acc=%v",
				what, i, got, fr.Weight(i), fr.Acc(i), b.Pos, b.Weight, accs[i])
		}
		if fr.Terminal(f, i) != b.Pos.Terminal(f) || fr.Ref(i) != b.Pos.Ref() || fr.Anchored(i) != b.Pos.Anchored() {
			t.Fatalf("%s: hypothesis %d accessors disagree with %v", what, i, b.Pos)
		}
	}
}

// TestFrontierMatchesSuccessors walks random loop nests from every
// re-anchoring point with a Frontier pair and with the allocating reference
// (Occurrences, Successors, a Key-string merge), and requires the same
// hypotheses in the same order with the same weights after every raw step,
// every event filter and every merge, under several caps.
func TestFrontierMatchesSuccessors(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		// Loops sharing prefixes, repeated unevenly: ambiguous contexts,
		// repeated runs and nested rules.
		var seq []int32
		for block := 0; block < 3+rng.Intn(4); block++ {
			tail := int32(2 + rng.Intn(3))
			for rep := 0; rep < 1+rng.Intn(5); rep++ {
				seq = append(seq, 0, 1)
				for k := 0; k < 1+rng.Intn(3); k++ {
					seq = append(seq, tail)
				}
			}
		}
		f := freeze(seq)
		max := []int{1, 3, 64}[trial%3]
		for ev := int32(0); ev < 5; ev++ {
			brs := Occurrences(f, ev)
			var cur, nxt Frontier
			var m Merger
			if cur.SetOccurrences(f, ev) != (len(brs) > 0) {
				t.Fatalf("trial %d: SetOccurrences(%d) disagrees on whether the event is known", trial, ev)
			}
			accs := make([]float64, len(brs))
			sameFrontier(t, "occurrences", f, &cur, brs, accs)
			for step := 0; step < 30 && len(brs) > 0; step++ {
				var raw []Branch
				var rawAcc []float64
				for i, b := range brs {
					for _, s := range Successors(f, b.Pos, b.Weight) {
						raw = append(raw, s)
						rawAcc = append(rawAcc, accs[i])
					}
				}
				nxt.Step(f, &cur)
				sameFrontier(t, "step", f, &nxt, raw, rawAcc)
				if step%3 == 2 && len(raw) > 0 {
					// Track: keep what designates one of the events.
					keep := raw[rng.Intn(len(raw))].Pos.Terminal(f)
					var kept []Branch
					var keptAcc []float64
					for i, b := range raw {
						if b.Pos.Terminal(f) == keep {
							kept = append(kept, b)
							keptAcc = append(keptAcc, rawAcc[i])
						}
					}
					raw, rawAcc = kept, keptAcc
					nxt.KeepEvent(f, keep)
					sameFrontier(t, "keep", f, &nxt, raw, rawAcc)
				}
				// Look ahead: every hypothesis gains some time first.
				for i := range raw {
					d := float64(100 + 37*int(raw[i].Pos.Terminal(f)) + 3*i)
					rawAcc[i] += d
					nxt.AddAcc(i, d)
				}
				brs, accs = refMerge(raw, rawAcc, max, step%2 == 0)
				nxt.MergeCap(&m, max, step%2 == 0)
				sameFrontier(t, "merge", f, &nxt, brs, accs)
				cur, nxt = nxt, cur
			}
		}
	}
}

func TestFrontierStart(t *testing.T) {
	var fr Frontier
	if fr.SetStart(&grammar.Frozen{Rules: []grammar.FrozenRule{{}}}) || fr.Len() != 0 {
		t.Fatal("empty grammar has a start")
	}
	f := freeze(seqOf("ababcababc"))
	pos, _ := Start(f)
	if !fr.SetStart(f) {
		t.Fatal("no start")
	}
	sameFrontier(t, "start", f, &fr, []Branch{{Pos: pos, Weight: 1}}, []float64{0})
}

// walkLone walks a one-hypothesis frontier seeded at pos with AdvanceLone,
// at most steps times, and requires it to take exactly the branch-free
// subset of Successors(pos, 1): AdvanceOK only for a unique successor, at
// its position and event, weight 1; AdvanceEnd only where there is none;
// the hypothesis unmoved on AdvanceEnd and AdvanceBranch; and at every step
// the run references of the position. Where AdvanceLone gives up the walk
// resumes on a random reference successor, as the predictor's general step
// would. It returns how often it gave up and whether the walk ended.
func walkLone(t *testing.T, what string, f *grammar.Frozen, pos Position, w float64, steps int, rng *rand.Rand) (branched int, ended bool) {
	t.Helper()
	var cur, scratch Frontier
	seed := func(p Position, w float64) {
		cur.hyps, cur.frames = []hyp{{depth: uint32(p.Depth()), weight: w}}, p.Frames()
	}
	seed(pos, w)
	for step := 0; step < steps; step++ {
		if got, want := cur.AppendRefs(0, nil), pos.AppendRefs(nil); !slices.Equal(got, want) {
			t.Fatalf("%s step %d: AppendRefs %v, want %v", what, step, got, want)
		}
		want := Successors(f, pos, 1)
		ev, res := cur.AdvanceLone(f, &scratch)
		switch {
		case res == AdvanceOK:
			if len(want) != 1 {
				t.Fatalf("%s step %d: AdvanceOK with %d reference successors", what, step, len(want))
			}
			if cur.Len() != 1 || cur.View(0).Key() != want[0].Pos.Key() || cur.Weight(0) != 1 || ev != want[0].Pos.Terminal(f) {
				t.Fatalf("%s step %d: AdvanceLone at %v w=%v ev=%d, want %v ev=%d",
					what, step, cur.View(0), cur.Weight(0), ev, want[0].Pos, want[0].Pos.Terminal(f))
			}
			pos = want[0].Pos
			continue
		case res == AdvanceEnd && len(want) != 0:
			t.Fatalf("%s step %d: AdvanceEnd with %d reference successors", what, step, len(want))
		case cur.View(0).Key() != pos.Key():
			t.Fatalf("%s step %d: AdvanceLone = %v moved the hypothesis to %v", what, step, res, cur.View(0))
		}
		if len(want) == 0 {
			return branched, true
		}
		branched++
		pos = want[rng.Intn(len(want))].Pos
		seed(pos, 1)
	}
	return branched, false
}

// TestFrontierAdvanceLone: on a one-hypothesis frontier seeded at every
// occurrence of every event, with the occurrence's weight, AdvanceLone takes
// the branch-free subset of Successors and an OK advance leaves the
// hypothesis weight 1.
func TestFrontierAdvanceLone(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := freeze(seqOf("abbcbcabbbcbcabbbcbcab"))
	for e := int32(0); e < 3; e++ {
		for oi, occ := range Occurrences(f, e) {
			walkLone(t, fmt.Sprintf("ev %d occ %d", e, oi), f, occ.Pos, occ.Weight, 200, rng)
		}
	}
}

// The TestStepper tests are named for the single-hypothesis stepper that
// Frontier.AdvanceLone replaced; they hold AdvanceLone to the same contracts.

// TestStepperMatchesSuccessorsAnchored walks several traces from the start
// with AdvanceLone and requires exact agreement with the Successors
// reference at every step: the walk never gives up and ends with AdvanceEnd
// exactly where Successors returns none.
func TestStepperMatchesSuccessorsAnchored(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, s := range []string{
		"ab",
		"ababab",
		"abbcbcabbbcbcabbbcbcab",
		"abcabcabcabcabc",
		"aaaabaaaabaaaab",
		"xyxyzxyxyzxyxyz",
	} {
		f := freeze(seqOf(s))
		pos, ok := Start(f)
		if !ok {
			t.Fatalf("%q: no start position", s)
		}
		if branched, ended := walkLone(t, s, f, pos, 1, len(s)+1, rng); branched != 0 || !ended {
			t.Fatalf("%q: anchored walk gave up %d times, ended %v", s, branched, ended)
		}
	}
}

// TestStepperPartialPositions seeds one-hypothesis frontiers at every
// grammar occurrence of every event (partial, non-anchored hypotheses) and
// cross-checks each AdvanceLone against Successors: AdvanceOK only when the
// reference has a unique successor, at the same position; on AdvanceEnd and
// AdvanceBranch the hypothesis unmoved and the walk resumed on a random
// reference branch.
func TestStepperPartialPositions(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, s := range []string{
		"abbcbcabbbcbcabbbcbcab",
		"abcabdababcabcabdababc",
		"aabbaabbaabbaabb",
	} {
		f := freeze(seqOf(s))
		for e := int32(0); e < 4; e++ {
			for oi, occ := range Occurrences(f, e) {
				walkLone(t, fmt.Sprintf("%q ev %d occ %d", s, e, oi), f, occ.Pos, 1, 200, rng)
			}
		}
	}
}

// TestStepperViewsAndRefs checks the accessor contracts along an anchored
// AdvanceLone walk: View agrees with a durable copy of the hypothesis, the
// copy does not follow the advance, and AppendRefs matches
// Position.AppendRefs.
func TestStepperViewsAndRefs(t *testing.T) {
	f := freeze(seqOf("abbcbcabbbcbcabbbcbcab"))
	var cur, scratch Frontier
	if !cur.SetStart(f) {
		t.Fatal("no start")
	}
	for step := 0; step < 10; step++ {
		durable := NewPosition(cur.View(0).Frames()...)
		if durable.Key() != cur.View(0).Key() {
			t.Fatalf("step %d: View and its copy disagree", step)
		}
		if got, want := cur.AppendRefs(0, nil), durable.AppendRefs(nil); !slices.Equal(got, want) {
			t.Fatalf("step %d: AppendRefs %v, want %v", step, got, want)
		}
		if _, res := cur.AdvanceLone(f, &scratch); res != AdvanceOK {
			break
		}
		if durable.Key() == cur.View(0).Key() {
			t.Fatalf("step %d: durable copy followed the advance", step)
		}
	}
}

// BenchmarkFrontierStepPartial is BenchmarkSuccessorsPartial on the arena:
// one step of every re-anchoring hypothesis of an event, merged.
func BenchmarkFrontierStepPartial(b *testing.B) {
	f := benchGrammar(b)
	var cur, nxt Frontier
	var m Merger
	cur.SetOccurrences(f, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nxt.Step(f, &cur)
		nxt.MergeCap(&m, 64, true)
	}
}
