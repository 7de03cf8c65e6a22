package predictor

// The frontier engine (this file) is the general hypothesis machinery:
// whatever a lone branch-free position cannot answer — tracking several
// hypotheses after a re-anchor, and every look-ahead that branches — runs
// on progress.Frontier buffers owned by the predictor and allocates nothing
// in steady state. Tracking (predictor.go) steps cands into spare and swaps;
// the look-ahead steps look.at into spare and swaps; both close a step with
// the same MergeCap.
//
// The look-ahead is memoised per observation: the dominant prediction of
// steps 1..k and the frontier at step k stay valid until the next Observe,
// Reset or StartAtBeginning, so a burst PredictAt(1), (4), (16), (64) walks
// 64 steps, not 85, and a repeated query is a read. Nothing about it is
// approximate: every step performs the float operations of the allocating
// reference (reference_test.go) in the same order, whichever query first
// asked for it. With Config.DisableCache every query drops the memo first.

import (
	"slices"

	"repro/internal/progress"
)

// lookStep is the dominant prediction of one look-ahead step; its distance
// is its index plus one.
type lookStep struct {
	ev   int32
	prob float64
	ns   float64
}

// eventSum accumulates the branches of one step that designate one event.
type eventSum struct {
	ev     int32
	w, acc float64
}

// lookahead is a walk of the hypothesis set into the future and its memo.
//
// A lone hypothesis is walked alone first, as long as each step has exactly
// one successor: its predictions carry probability 1 whatever weight the
// grammar's occurrence counts would leave it. Only a query that reaches the
// step where that walk branches is answered by the frontier walk, then for
// all of its steps. Which walk answers thus depends on the distance asked;
// the memo holds one of them at a time and remembers where the lone one
// branched, so a burst of ascending distances walks each at most once.
type lookahead struct {
	// valid: the fields below describe a walk from the current hypothesis
	// set, in the mode lone says. Observe, Reset and StartAtBeginning clear
	// it, and nothing else does.
	valid bool
	lone  bool
	// ended: no hypothesis has a successor beyond the last step.
	ended bool
	// branchAt is the step at which the lone walk branches, 0 while that
	// is not known.
	branchAt int
	// steps[i] is the dominant prediction at distance i+1 and at the
	// frontier after the last of them (a copy of cands before the first).
	steps []lookStep
	at    *progress.Frontier
	// sums is the per-event aggregation scratch of one step.
	sums []eventSum
}

// prediction returns the memoised step at distance d.
func (l *lookahead) prediction(d int) Prediction {
	s := l.steps[d-1]
	return Prediction{EventID: s.ev, Probability: s.prob, Distance: d, ExpectedNs: s.ns}
}

// push records the dominant prediction of the next step.
// pythia:hotpath — growth is amortized and ends at the largest distance asked.
func (l *lookahead) push(s lookStep) {
	n := len(l.steps)
	if n == cap(l.steps) {
		l.steps = slices.Grow(l.steps, 1)
	}
	l.steps = l.steps[:n+1]
	l.steps[n] = s
}

// openWalk begins a query the window cannot answer: with DisableCache
// nothing survives from the query before.
func (p *Predictor) openWalk() {
	if p.cfg.DisableCache {
		p.look.valid = false
	}
}

// walkTo makes look.steps hold the predictions of steps 1..n a query for
// distance n is answered with, and returns how many it holds: fewer than n
// when every hypothesis reaches the end of the reference trace first.
// pythia:hotpath — at most one frontier step per new look-ahead step.
func (p *Predictor) walkTo(n int) int {
	l := &p.look
	branches := l.valid && l.branchAt != 0 && n >= l.branchAt
	return p.walk(p.cands.Len() == 1 && !branches, n)
}

// walk extends the walk of the given mode to n steps, starting it over when
// the memo holds the other one; a lone walk that branches first is redone
// on the whole frontier.
// pythia:hotpath — one frontier step per new look-ahead step.
func (p *Predictor) walk(lone bool, n int) int {
	l := &p.look
	if !l.valid || l.lone != lone {
		p.startWalk(lone)
	}
	for len(l.steps) < n && !l.ended {
		if !p.step() {
			l.branchAt = len(l.steps) + 1
			p.startWalk(false)
		}
	}
	return len(l.steps)
}

// startWalk seeds look.at with the hypothesis set; alone, the hypothesis
// advances with weight 1, as the reference walks it with Successors(pos, 1).
func (p *Predictor) startWalk(lone bool) {
	l := &p.look
	if !l.valid {
		l.branchAt = 0
	}
	l.valid, l.lone, l.ended = true, lone, false
	l.steps = l.steps[:0]
	l.at.Set(p.cands)
	if lone {
		l.at.SetWeight(0, 1)
	}
}

// step advances look.at by one terminal — successors, expected time, merge,
// cap — and records the step's dominant prediction. It reports false, with
// nothing changed, when a lone walk has more than one successor. The walk
// cost grows linearly with the horizon (paper Fig. 9): each step advances
// every kept branch by one terminal.
// pythia:hotpath — one call per look-ahead step beyond the window.
func (p *Predictor) step() bool {
	l := &p.look
	nxt := p.spare
	if len(l.steps) == 0 && p.pending {
		// Fresh start: the candidates already designate the next event.
		nxt.Set(l.at)
	} else {
		nxt.Step(p.f, l.at)
	}
	if nxt.Len() == 0 {
		l.ended = true
		return true
	}
	if l.lone {
		if nxt.Len() > 1 {
			return false
		}
		nxt.SetWeight(0, 1)
	}
	if p.timing != nil {
		for i := 0; i < nxt.Len(); i++ {
			p.refsBuf = nxt.AppendRefs(i, p.refsBuf[:0])
			nxt.AddAcc(i, p.timing.MeanForPath(p.refsBuf, nxt.Terminal(p.f, i)))
		}
	}
	nxt.MergeCap(&p.merger, p.cfg.MaxLookahead, false)
	l.at, p.spare = nxt, l.at
	total := p.sumByEvent()
	l.push(dominant(l.sums, total))
	return true
}

// sumByEvent aggregates the weights of look.at per event id into look.sums,
// events in first-seen order and each sum in branch order, and returns the
// total weight.
// pythia:hotpath — one pass per look-ahead step.
func (p *Predictor) sumByEvent() (total float64) {
	l := &p.look
	sums := l.sums[:0]
	for i := 0; i < l.at.Len(); i++ {
		ev, w := l.at.Terminal(p.f, i), l.at.Weight(i)
		j := 0
		for j < len(sums) && sums[j].ev != ev {
			j++
		}
		if j == len(sums) {
			if j == cap(sums) {
				sums = slices.Grow(sums, 1)
			}
			sums = sums[:j+1]
			sums[j] = eventSum{ev: ev}
		}
		sums[j].w += w
		sums[j].acc += w * l.at.Acc(i)
		total += w
	}
	l.sums = sums
	return total
}

// dominant returns the heaviest event of a step — the lower id on a tie —
// with its probability and weighted expected time.
// pythia:hotpath — one pass per look-ahead step.
func dominant(sums []eventSum, total float64) lookStep {
	best := eventSum{ev: -1, w: -1}
	for _, s := range sums {
		if s.w > best.w || (s.w == best.w && s.ev < best.ev) {
			best = s
		}
	}
	out := lookStep{ev: best.ev}
	if best.w > 0 {
		out.ns = best.acc / best.w
	}
	if total > 0 {
		out.prob = best.w / total
	}
	return out
}
