package predictor

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/model"
)

// ambiguousSeq is the reference execution of BenchmarkAblation_CandidateCap:
// four phases that share the "0 1" prefix and diverge afterwards, so that a
// re-anchor on 0 or 1 stays ambiguous and the hypothesis cap matters.
func ambiguousSeq() []int32 {
	var seq []int32
	for rep := 0; rep < 30; rep++ {
		for _, tail := range []int32{2, 3, 4, 5} {
			for i := 0; i < 6; i++ {
				seq = append(seq, 0, 1, tail, tail)
			}
		}
	}
	return seq
}

// ambiguousSchedule replays seq with 15 % injected events — unknown ones,
// which drop every hypothesis so that the next event re-anchors on all its
// occurrences, and known-but-unexpected ones — and a query after nearly
// every observation.
func ambiguousSchedule(rng *rand.Rand, seq []int32, maxID int32, steps int) []diffOp {
	var ops []diffOp
	for j := 0; len(ops) < steps; j++ {
		switch r := rng.Float64(); {
		case r < 0.08:
			ops = append(ops, diffOp{kind: 0, event: maxID + 1})
		case r < 0.15:
			ops = append(ops, diffOp{kind: 0, event: seq[rng.Intn(len(seq))]})
		case r < 0.16:
			ops = append(ops, diffOp{kind: 4})
			j = -1
			continue
		}
		ops = append(ops, diffOp{kind: 0, event: seq[j%len(seq)]}, randomQuery(rng, maxID))
	}
	return ops
}

// TestDifferentialEngineVsReference is the bit-identity contract of the
// predictor: on noisy replays, it and the allocating reference
// (reference_test.go) return the same value for every query of every kind
// and hold the same tracking state after every step. The schedules must
// actually live in multi-hypothesis states, or the general path would go
// unchecked.
func TestDifferentialEngineVsReference(t *testing.T) {
	run := func(name string, tr *model.Trace, cfg Config, ops []diffOp) {
		queries, multi := runDifferential(t, New(tr, cfg), newRef(tr, cfg), ops)
		t.Logf("%s: %d of %d queries with more than one hypothesis", name, multi, queries)
		if 5*multi < queries {
			t.Errorf("%s: %d of %d queries with more than one hypothesis, want at least a fifth", name, multi, queries)
		}
	}
	// The noisy schedules and the ambiguous one over the motif loops. No
	// floor on ambiguity here: these grammars leave a re-anchor one or two
	// hypotheses.
	seqs, maxIDs := motifTraces()
	for mi, seq := range seqs {
		tr := timedTraceOf(seq)
		for seed := int64(0); seed < 4; seed++ {
			rng := rand.New(rand.NewSource(seed*1000 + int64(mi)))
			for _, ops := range [][]diffOp{
				buildSchedule(rng, seq, maxIDs[mi], 600),
				ambiguousSchedule(rng, seq, maxIDs[mi], 600),
			} {
				runDifferential(t, New(tr, Config{}), newRef(tr, Config{}), ops)
			}
		}
	}
	seq := ambiguousSeq()
	tr := timedTraceOf(seq)
	for _, maxCand := range []int{1, 4, 16, 64} {
		for _, look := range []int{4, 256} {
			rng := rand.New(rand.NewSource(int64(maxCand*1000 + look)))
			cfg := Config{MaxCandidates: maxCand, MaxLookahead: look, WatchdogWindow: -1}
			name := fmt.Sprintf("cap %d look-ahead %d", maxCand, look)
			ops := ambiguousSchedule(rng, seq, 5, 1200)
			if maxCand == 1 {
				// One hypothesis by construction: identity only.
				runDifferential(t, New(tr, cfg), newRef(tr, cfg), ops)
				continue
			}
			run(name, tr, cfg, ops)
		}
	}
}

// FuzzFrontierDiff drives the predictor and the reference with an arbitrary
// schedule over the ambiguous grammar: each input byte is one operation.
func FuzzFrontierDiff(f *testing.F) {
	f.Add([]byte{0, 1, 2, 2, 0x90, 0, 1, 0xa3, 0xff, 1, 3, 0xb7, 0xc2})
	f.Add([]byte{0xe0, 0, 1, 2, 0x8f, 0xd9, 6, 0, 0x91, 0xf1, 1, 0xb0})
	seq := ambiguousSeq()
	tr := timedTraceOf(seq)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		ops := make([]diffOp, len(data))
		for i, b := range data {
			arg := int(b&0x0f)*5 + 1
			switch {
			case b < 0x80:
				ops[i] = diffOp{kind: 0, event: int32(b) % 7} // 6 is unknown
			case b < 0x90:
				ops[i] = diffOp{kind: 1, arg: arg}
			case b < 0xa0:
				ops[i] = diffOp{kind: 2, arg: arg}
			case b < 0xb0:
				ops[i] = diffOp{kind: 3, arg: arg, queryEv: int32(b>>2) % 7}
			case b < 0xc0:
				ops[i] = diffOp{kind: 6, arg: arg}
			case b < 0xd0:
				ops[i] = diffOp{kind: 7, arg: arg}
			case b < 0xe0:
				ops[i] = diffOp{kind: 1, arg: int(b & 0x0f)} // includes distance 0
			case b < 0xf0:
				ops[i] = diffOp{kind: 4}
			default:
				ops[i] = diffOp{kind: 5}
			}
		}
		cfg := Config{MaxCandidates: 1 + len(data)%7, MaxLookahead: 2 + len(data)%11, WatchdogWindow: 16}
		runDifferential(t, New(tr, cfg), newRef(tr, cfg), ops)
	})
}

// noisyReplay is seq with known-but-unexpected events injected before 15 %
// of its events.
func noisyReplay(seq []int32, seed int64) []int32 {
	rng := rand.New(rand.NewSource(seed))
	var out []int32
	for _, e := range seq {
		if rng.Float64() < 0.15 {
			out = append(out, seq[rng.Intn(len(seq))])
		}
		out = append(out, e)
	}
	return out
}

var burstDistances = [...]int{1, 4, 16, 64}

// replayWithBursts observes the stream and asks the burst every 16 events.
func replayWithBursts(p *Predictor, stream []int32) (answered int) {
	p.StartAtBeginning()
	for i, e := range stream {
		p.Observe(e)
		if (i+1)%16 != 0 {
			continue
		}
		for _, d := range burstDistances {
			if _, ok := p.PredictAt(d); ok {
				answered++
			}
		}
	}
	return answered
}

// TestMultiHypothesisZeroAlloc is the allocation gate of the noisy steady
// state: once one pass has sized the engine's buffers, re-anchoring,
// multi-hypothesis tracking and branching look-ahead allocate nothing.
func TestMultiHypothesisZeroAlloc(t *testing.T) {
	seq := ambiguousSeq()
	tr := timedTraceOf(seq)
	stream := noisyReplay(seq, 3)
	p := New(tr, Config{})
	if replayWithBursts(p, stream) == 0 {
		t.Fatal("no burst answered")
	}
	if s := p.Stats(); s.ReAnchored < int64(len(seq)/20) {
		t.Fatalf("only %d re-anchors over %d events: the replay is not noisy", s.ReAnchored, len(stream))
	}
	if a := testing.AllocsPerRun(5, func() { replayWithBursts(p, stream) }); a != 0 {
		t.Fatalf("noisy replay allocates %.1f times per pass, want 0", a)
	}
}

// TestLoneReplayZeroAlloc is the allocation gate of the faithful steady
// state: once one pass has sized the window, a replay with a timing model —
// Observe, and PredictAt(1, 4, 16, 64) every 16 events — allocates nothing.
func TestLoneReplayZeroAlloc(t *testing.T) {
	seq := ambiguousSeq()
	p := New(timedTraceOf(seq), Config{})
	if replayWithBursts(p, seq) == 0 {
		t.Fatal("no burst answered")
	}
	if s := p.Stats(); s.Followed != int64(len(seq)) {
		t.Fatalf("faithful replay followed %d of %d events", s.Followed, len(seq))
	}
	if a := testing.AllocsPerRun(5, func() { replayWithBursts(p, seq) }); a != 0 {
		t.Fatalf("faithful replay allocates %.1f times per pass, want 0", a)
	}
}

// scratchBytes is the memory the engine retains between queries.
func scratchBytes(p *Predictor) int {
	n := 0
	for i := range p.bufs {
		h, f := p.bufs[i].Cap()
		n += 24*h + 12*f
	}
	s, h := p.merger.Cap()
	return n + 4*s + 8*h + 24*cap(p.look.steps) + 24*cap(p.look.sums)
}

// TestEngineScratchSizedByUse: a predictor that has only ever tracked one
// hypothesis holds none of the multi-hypothesis scratch, and one that has
// been through the ambiguous schedule holds a few KiB, not buffers sized by
// MaxCandidates x MaxLookahead.
func TestEngineScratchSizedByUse(t *testing.T) {
	seq := ambiguousSeq()
	tr := timedTraceOf(seq)
	p := New(tr, Config{})
	replayWithBursts(p, seq)
	if p.Stats().ReAnchored != 0 {
		t.Fatal("faithful replay re-anchored")
	}
	if s, h := p.merger.Cap(); s != 0 || h != 0 || cap(p.look.steps) != 0 || cap(p.look.sums) != 0 {
		t.Fatalf("lone-hypothesis predictor holds engine scratch: table %d/%d, memo %d, sums %d",
			s, h, cap(p.look.steps), cap(p.look.sums))
	}
	if h, _ := p.look.at.Cap(); h != 0 {
		t.Fatalf("lone-hypothesis predictor holds a look-ahead frontier of %d headers", h)
	}
	if n := scratchBytes(p); n > 512 {
		t.Fatalf("lone-hypothesis predictor retains %d bytes of frontier buffers", n)
	}

	rng := rand.New(rand.NewSource(1))
	for _, op := range ambiguousSchedule(rng, seq, 5, 4000) {
		switch op.kind {
		case 0:
			p.Observe(op.event)
		case 4:
			p.StartAtBeginning()
		default:
			for _, d := range burstDistances {
				p.PredictAt(d)
			}
		}
	}
	if n := scratchBytes(p); n > 16<<10 {
		t.Fatalf("engine retains %d bytes after the ambiguous schedule, want at most 16 KiB", n)
	}
}

func benchNoisy(b testing.TB) (*model.Trace, []int32) {
	b.Helper()
	seq := ambiguousSeq()
	return timedTraceOf(seq), noisyReplay(seq, 3)
}

// BenchmarkObserveNoisy: tracking alone on the noisy replay (re-anchors and
// multi-hypothesis steps included), per event.
func BenchmarkObserveNoisy(b *testing.B) {
	tr, stream := benchNoisy(b)
	p := New(tr, Config{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += len(stream) {
		p.StartAtBeginning()
		for _, e := range stream {
			p.Observe(e)
		}
	}
}

// BenchmarkPredictBurstMultiHypothesis: one PredictAt(1,4,16,64) burst whose
// look-ahead branches at once — a partial hypothesis inside the shared
// "0 1" prefix, all four phases above it — the memo dropped by an
// observation before each.
func BenchmarkPredictBurstMultiHypothesis(b *testing.B) {
	tr, _ := benchNoisy(b)
	p := New(tr, Config{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Observe(int32(i & 1)) // 0 1 0 1 …: each 0 re-anchors, inside the prefix
		for _, d := range burstDistances {
			// After the 1 the next event is one of the four tails.
			if pr, ok := p.PredictAt(d); i == 1 && d == 1 && (!ok || pr.Probability == 1) {
				b.Fatalf("look-ahead does not branch: %+v %v", pr, ok)
			}
		}
	}
}

// TestWalkCostGrowsWithDistance is the paper's Fig. 9 claim on the walk that
// still runs per query. As in BenchmarkPredictBurstMultiHypothesis, the
// hypothesis sits at the end of the shared "0 1" prefix, so the look-ahead
// branches at once, and an observation drops the memo before each query:
// PredictAt(d) then takes exactly d frontier steps, and summed over a few
// hundred query points distance 64 costs at least twice distance 1 — far
// less than the walks differ by, a margin scheduling noise does not close.
func TestWalkCostGrowsWithDistance(t *testing.T) {
	tr, _ := benchNoisy(t)
	const points = 256
	distances := [...]int{1, 64}
	var cost [len(distances)]time.Duration
	for k, d := range distances {
		p := New(tr, Config{})
		for i := 0; i < points; i++ {
			p.Observe(0) // after a 1 or at first: a re-anchor
			p.Observe(1)
			start := time.Now()
			_, ok := p.PredictAt(d)
			cost[k] += time.Since(start)
			if !ok || len(p.look.steps) != d {
				t.Fatalf("point %d: PredictAt(%d) = %v walked %d frontier steps, want %d", i, d, ok, len(p.look.steps), d)
			}
		}
	}
	t.Logf("%d queries: distance 1 %v, distance 64 %v", points, cost[0], cost[1])
	if cost[1] < 2*cost[0] {
		t.Errorf("walk cost over %d queries: distance 64 %v, distance 1 %v, want at least twice", points, cost[1], cost[0])
	}
}
