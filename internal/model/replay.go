package model

import "repro/internal/grammar"

// memoCap is the longest expansion, in events, whose first iteration Replay
// memoises to fold the rest of a repeated run from. It bounds the memo: the
// route holds one index per event of the outermost run recording, and every
// memo entry covers at least one of those events.
const memoCap = 8192

// memo is Replay's reusable record of the first iteration of the outermost
// run recording: one entry per terminal run walked, and the route from each
// event of the iteration to its entry. Inner repeated runs do not add
// entries for their later iterations; they copy their stretch of the route,
// so every iteration of a loop body shares its first iteration's entries.
type memo struct {
	entries []memoEntry
	route   []int32
}

// memoEntry is one terminal run walked while recording: the deepest slot of
// its context chain (the shallower ones follow by tails) and its event; acc
// folds its deltas over the later iterations of the run being folded.
type memoEntry struct {
	slot, event int32
	acc         Stat
}

// window is the innermost MaxContextDepth runs of the walk's progress
// sequence, topmost first — all a timing context is made of.
type window struct {
	refs [MaxContextDepth]grammar.UserRef
	n    int
}

// push returns w with ref added innermost, the topmost run dropped when full.
func (w window) push(ref grammar.UserRef) window {
	if w.n < MaxContextDepth {
		w.refs[w.n] = ref
		w.n++
		return w
	}
	copy(w.refs[:], w.refs[1:])
	w.refs[MaxContextDepth-1] = ref
	return w
}

// Replay accumulates the observations of the timing replay: the i-th event
// of the trace f unfolds to is observed with deltas[i], in the contexts of
// its root-anchored progress sequence, until either runs out — a checkpoint
// view or a truncated recording may hold fewer deltas than the unfold. The
// Timing is the one a Timing.AddPath per event of a root-anchored walk
// (progress.Frontier.AdvanceLone) yields.
//
// The walk expands the grammar directly, and a timing context — the
// innermost MaxContextDepth (Rule, Pos) refs, with no iteration counters —
// is the same in every iteration of a run. So a terminal run t^c resolves
// its context chain once and merges the folded Stat of its c deltas; and a
// repeated run R^c whose expansion is at most memoCap events records its
// first iteration in the memo, then folds iterations 2..c into the memo's
// entries in one front-to-back pass over their deltas and merges each entry
// once. Memos nest: while a run records, an inner run's entries and route,
// its folded iterations included, join the enclosing memo. The pass stops
// where the deltas do, part way through an iteration if need be, and a
// context is interned only when it receives an observation. A Stat's count,
// sum, min and max do not depend on the order observations arrive in, so
// merging a fold is the sequence of Adds it replaces.
func (b *TimingBuilder) Replay(f *grammar.Frozen, deltas []int64) {
	if len(deltas) == 0 || len(f.Rules) == 0 {
		return
	}
	r := replay{b: b, f: f, deltas: deltas}
	r.expand(0, window{})
}

// replay is the state of one Replay walk.
type replay struct {
	b      *TimingBuilder
	f      *grammar.Frozen
	deltas []int64
	at     int // index of the next event, and of its delta
	rec    int // runs recording their first iteration into the memo
	base   int // event index at which the outermost recording run began
	n      int // live memo entries: b.memo.entries[:n]
}

// expand walks one expansion of rule with w the context above it; false
// once the walk is over (every delta observed, or an empty body reached).
// On entry at least one delta is left.
// pythia:hotpath — the replay loop, one call per expansion walked.
func (r *replay) expand(rule int32, w window) bool {
	for pos, run := range r.f.Rules[rule].Body {
		cw := w.push(grammar.UserRef{Rule: rule, Pos: int32(pos)})
		var ok bool
		if run.Sym.IsTerminal() {
			ok = r.terminal(run.Sym.Event(), int(run.Count), cw)
		} else {
			ok = r.repeat(run.Sym.RuleIndex(), int(run.Count), cw)
		}
		if !ok {
			return false
		}
	}
	return true
}

// terminal observes the (up to) cnt deltas of a terminal run of event ev in
// context w: one chain resolution, one fold, one merge per context depth.
// pythia:hotpath — one call per terminal run walked.
func (r *replay) terminal(ev int32, cnt int, w window) bool {
	end := min(r.at+cnt, len(r.deltas))
	var s Stat
	for _, d := range r.deltas[r.at:end] {
		s.Add(d)
	}
	slot := r.b.ctx.chain(w.refs[:w.n])
	r.b.merge(slot, ev, s)
	if r.rec > 0 {
		m := &r.b.memo
		m.entries[r.n] = memoEntry{slot: slot, event: ev}
		route := m.route[r.at-r.base : end-r.base]
		for i := range route {
			route[i] = int32(r.n)
		}
		r.n++
	}
	r.at = end
	return end < len(r.deltas)
}

// repeat replays count expansions of rule in context w: walked one by one
// when the expansion is longer than memoCap (its inner runs still memoise),
// else the first walked into the memo and the rest folded from it.
// pythia:hotpath — one call per non-terminal run walked.
func (r *replay) repeat(rule int32, count int, w window) bool {
	fr := &r.f.Rules[rule]
	if len(fr.Body) == 0 {
		// A root-anchored walk stops where it would enter an empty body.
		return false
	}
	if count < 2 || fr.Len > memoCap {
		for range count {
			if !r.expand(rule, w) {
				return false
			}
		}
		return true
	}
	if r.rec == 0 {
		r.startMemo(int(fr.Len))
	}
	from, start := r.n, r.at
	r.rec++
	ok := r.expand(rule, w)
	r.rec--
	return ok && r.fold(from, start, int(fr.Len), count)
}

// startMemo empties the memo for an outermost recording run of length
// events (at most memoCap), growing its buffers to hold the run's entries
// and route.
func (r *replay) startMemo(length int) {
	m := &r.b.memo
	if length > len(m.route) {
		n := min(max(length, 2*len(m.route)), memoCap)
		m.entries, m.route = make([]memoEntry, n), make([]int32, n)
	}
	r.base, r.n = r.at, 0
}

// fold applies iterations 2..count of a run of length events per iteration
// whose first iteration began at event start and recorded the memo entries
// from..r.n: one pass over the deltas of the later iterations, front to
// back and stopping where the deltas do, routes each delta into its entry's
// acc; then each entry is merged once. While an enclosing run records, the
// route of the first iteration is copied over the later ones.
// pythia:hotpath — one call per memoised run.
func (r *replay) fold(from, start, length, count int) bool {
	m := &r.b.memo
	entries := m.entries[from:r.n]
	for k := range entries {
		entries[k].acc = Stat{}
	}
	all, route := m.entries, m.route[start-r.base:start-r.base+length]
	end := min(start+count*length, len(r.deltas))
	for it := start + length; it < end; it += length {
		iter := r.deltas[it:min(it+length, end)]
		to := route[:len(iter)]
		for i, d := range iter {
			all[to[i]].acc.Add(d)
		}
	}
	for _, e := range entries {
		r.b.merge(e.slot, e.event, e.acc)
	}
	r.b.memoised += int64(end - start - length)
	r.at = end
	if end == len(r.deltas) {
		return false
	}
	if r.rec > 0 {
		for it := start + length; it < end; it += length {
			copy(m.route[it-r.base:], route)
		}
	}
	return true
}
