package predictor

// The look-ahead (this file) answers "which event comes d events from now"
// by walking the hypothesis set forward through the grammar (paper §II-B,
// Fig. 9). Every query reads it through ahead, which picks one of two walks:
//
//   - the window, while one hypothesis is tracked — the common case on a
//     faithful replay: the events of the steps ahead and their expected
//     durations, grown on demand and slid by one at each followed
//     observation instead of being rebuilt, so the steady-state loop of one
//     Observe plus one PredictAt per event is amortized O(1);
//   - the frontier walk, for several hypotheses or a query at or past the
//     step where the window branches: progress.Frontier buffers owned by the
//     predictor, stepped into spare and swapped, each step closed with
//     MergeCap, as tracking does (predictor.go). Its dominant prediction of
//     steps 1..k and the frontier at step k stay valid until the next
//     Observe, Reset or StartAtBeginning, so a burst PredictAt(1), (4),
//     (16), (64) walks 64 steps, not 85, and a repeated query is a read.
//
// Neither is approximate: each performs the float operations of the
// allocating reference (reference_test.go) in the same order, whichever
// query first asked for a step. Nothing allocates in steady state.

import (
	"slices"

	"repro/internal/progress"
)

// winStep is one step of the window: its event, and the expected duration
// of that step alone (zero without a timing model).
type winStep struct {
	ev   int32
	mean float64
}

// window is the look-ahead of a lone hypothesis, kept across observations.
//
// It walks by the rule of Successors(pos, 1): a step is taken while exactly
// one successor exists, and predicted with probability 1 whatever weight the
// grammar's occurrence counts would leave the hypothesis. Frontier.AdvanceLone
// takes such a step in place where it can; where it gives up (AdvanceBranch:
// leaving a context upward, which may still leave one successor), one general
// Frontier.Step decides.
//
// While valid, steps[head+i] is the step i+1 events from now and end is the
// position of the last step held — the current position while none is.
// Durations are summed in ascending order on read, so an answer is
// bit-identical to a walk from the current position.
type window struct {
	valid bool
	// ended: no step follows the last one held. branched: the step after
	// it has several successors, and queries reaching it are the frontier
	// walk's.
	ended, branched bool
	steps           []winStep
	head            int
	// end is the walk's position and next the scratch it advances in.
	end, next progress.Frontier
}

// held returns the number of steps the window holds ahead of now.
func (w *window) held() int { return len(w.steps) - w.head }

// timeTo returns the expected time through step d, summed in order.
func (w *window) timeTo(d int) (acc float64) {
	for _, s := range w.steps[w.head : w.head+d] {
		acc += s.mean
	}
	return acc
}

// slide moves the window past one followed observation. An empty window can
// no longer move in lockstep with the hypothesis and is dropped; the next
// query rebuilds it, reusing its buffers.
// pythia:hotpath — one call per followed observation of a lone hypothesis.
func (w *window) slide() {
	if !w.valid {
		return
	}
	if w.held() == 0 {
		w.valid = false
		return
	}
	w.head++
	switch {
	case w.head == len(w.steps):
		w.steps, w.head = w.steps[:0], 0
	case w.head >= 1024 && 2*w.head >= len(w.steps):
		// Compact the consumed prefix so the buffer stops growing.
		w.steps, w.head = w.steps[:copy(w.steps, w.steps[w.head:])], 0
	}
}

// ahead makes steps 1..n of the look-ahead available and returns how many
// are — fewer than n when the walk ends first — and whether the window holds
// them; otherwise the frontier walk's memo does.
// pythia:hotpath — every query starts here.
func (p *Predictor) ahead(n int) (got int, win bool) {
	w := &p.win
	if p.cands.Len() != 1 {
		return p.walkTo(n), false
	}
	if !w.valid {
		p.openWindow()
	}
	for w.held() < n && !w.ended && !w.branched {
		p.growWindow()
	}
	if got = w.held(); got >= n || w.ended {
		return got, true
	}
	return p.walkTo(n), false
}

// stepAt returns the prediction at distance d of the walk ahead chose. A
// window read adds the step's duration to *acc, which must hold the time
// through step d-1.
// pythia:hotpath — one call per predicted step.
func (p *Predictor) stepAt(win bool, d int, acc *float64) Prediction {
	if !win {
		s := p.look.steps[d-1]
		return Prediction{EventID: s.ev, Probability: s.prob, Distance: d, ExpectedNs: s.ns}
	}
	s := p.win.steps[p.win.head+d-1]
	*acc += s.mean
	return Prediction{EventID: s.ev, Probability: 1, Distance: d, ExpectedNs: *acc}
}

// openWindow starts the window at the lone hypothesis. With a start pending
// the hypothesis itself is the next event: step 1.
func (p *Predictor) openWindow() {
	w := &p.win
	w.valid, w.ended, w.branched = true, false, false
	w.steps, w.head = w.steps[:0], 0
	w.end.Set(p.cands)
	w.end.SetWeight(0, 1)
	if p.pending {
		p.pushStep(w.end.Terminal(p.f, 0))
	}
}

// growWindow takes the window's next step, or finds that it ends or
// branches there.
// pythia:hotpath — one in-place advance per new window step.
func (p *Predictor) growWindow() {
	w := &p.win
	ev, res := w.end.AdvanceLone(p.f, &w.next)
	switch res {
	case progress.AdvanceEnd:
		w.ended = true
		return
	case progress.AdvanceBranch:
		w.next.Step(p.f, &w.end)
		if w.next.Len() != 1 {
			w.ended = w.next.Len() == 0
			w.branched = !w.ended
			return
		}
		w.end, w.next = w.next, w.end
		w.end.SetWeight(0, 1)
		ev = w.end.Terminal(p.f, 0)
	}
	p.pushStep(ev)
}

// pushStep appends the step to event ev that the window's end designates.
// pythia:hotpath — growth is amortized and ends at the largest distance asked.
func (p *Predictor) pushStep(ev int32) {
	w := &p.win
	s := winStep{ev: ev}
	if p.timing != nil {
		p.refsBuf = w.end.AppendRefs(0, p.refsBuf[:0])
		s.mean = p.timing.MeanForPath(p.refsBuf, ev)
	}
	n := len(w.steps)
	if n == cap(w.steps) {
		w.steps = slices.Grow(w.steps, 1)
	}
	w.steps = w.steps[:n+1]
	w.steps[n] = s
}

// lookStep is the dominant prediction of one frontier-walk step; its
// distance is its index plus one.
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

// lookahead is the frontier walk of the hypothesis set and its memo.
type lookahead struct {
	// valid: the fields below describe a walk from the current hypothesis
	// set. Observe, Reset and StartAtBeginning clear it, and nothing else
	// does.
	valid bool
	// ended: no hypothesis has a successor beyond the last step.
	ended bool
	// steps[i] is the dominant prediction at distance i+1 and at the
	// frontier after the last of them (a copy of cands before the first).
	steps []lookStep
	at    *progress.Frontier
	// sums is the per-event aggregation scratch of one step.
	sums []eventSum
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

// walkTo makes look.steps hold the predictions of steps 1..n, starting the
// walk if the memo is empty, and returns how many it holds: fewer than n
// when every hypothesis reaches the end of the reference trace first.
// pythia:hotpath — at most one frontier step per new look-ahead step.
func (p *Predictor) walkTo(n int) int {
	l := &p.look
	if !l.valid {
		p.startWalk()
	}
	for len(l.steps) < n && !l.ended {
		p.step()
	}
	return len(l.steps)
}

// startWalk seeds look.at with the hypothesis set.
func (p *Predictor) startWalk() {
	l := &p.look
	l.valid, l.ended = true, false
	l.steps = l.steps[:0]
	l.at.Set(p.cands)
}

// step advances look.at by one terminal — successors, expected time, merge,
// cap — and records the step's dominant prediction. The walk cost grows
// linearly with the horizon (paper Fig. 9): each step advances every kept
// branch by one terminal.
// pythia:hotpath — one call per look-ahead step beyond the window.
func (p *Predictor) step() {
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
		return
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
