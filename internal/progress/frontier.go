package progress

import (
	"slices"

	"repro/internal/grammar"
)

// Frontier is a weighted set of hypotheses — the general, branching form of
// progress tracking (paper section II-B2) — stored without a heap object per
// hypothesis: every frame stack lies in one flat arena and a hypothesis is a
// header (offset, depth, weight, accumulated time) over it. A step reads one
// frontier and appends the successors to another, so a predictor advances
// any number of hypotheses through any number of steps on two buffers that
// stop growing once the widest step has been seen.
//
// Step, KeepEvent and MergeCap perform exactly the transitions and float
// operations of Successors and of a first-seen merge over Position.Key
// strings, in the same order; the allocating forms remain as the reference
// the differential tests compare against. The zero value is an empty
// frontier holding no memory.
type Frontier struct {
	hyps   []hyp
	frames []Frame
}

// hyp is one hypothesis: the frame stack frames[off:off+depth], its weight,
// and the expected time accumulated along the look-ahead that produced it
// (zero while tracking).
type hyp struct {
	off, depth  uint32
	weight, acc float64
}

// Len returns the number of hypotheses.
func (fr *Frontier) Len() int { return len(fr.hyps) }

// Clear empties the frontier, keeping its buffers.
func (fr *Frontier) Clear() {
	fr.hyps = fr.hyps[:0]
	fr.frames = fr.frames[:0]
}

// Cap returns the capacities of the header and frame buffers, the memory
// the frontier retains.
func (fr *Frontier) Cap() (hyps, frames int) { return cap(fr.hyps), cap(fr.frames) }

func (fr *Frontier) stack(i int) []Frame {
	h := fr.hyps[i]
	return fr.frames[h.off : h.off+h.depth]
}

// Weight returns the weight of hypothesis i.
func (fr *Frontier) Weight(i int) float64 { return fr.hyps[i].weight }

// SetWeight replaces the weight of hypothesis i.
func (fr *Frontier) SetWeight(i int, w float64) { fr.hyps[i].weight = w }

// Acc returns the time accumulated by hypothesis i.
func (fr *Frontier) Acc(i int) float64 { return fr.hyps[i].acc }

// AddAcc adds ns to the time accumulated by hypothesis i.
func (fr *Frontier) AddAcc(i int, ns float64) { fr.hyps[i].acc += ns }

// Ref returns the terminal run hypothesis i designates.
func (fr *Frontier) Ref(i int) grammar.UserRef {
	h := fr.hyps[i]
	return fr.frames[h.off+h.depth-1].Ref
}

// Terminal returns the event id hypothesis i designates.
// pythia:hotpath — one call per hypothesis per step.
func (fr *Frontier) Terminal(f *grammar.Frozen, i int) int32 {
	return f.RunAt(fr.Ref(i)).Sym.Event()
}

// Anchored reports whether hypothesis i is anchored at the root rule.
func (fr *Frontier) Anchored(i int) bool { return fr.frames[fr.hyps[i].off].Ref.Rule == 0 }

// AppendRefs appends the run references of hypothesis i (topmost first) to
// buf and returns the extended slice.
// pythia:hotpath — the caller owns and reuses buf.
func (fr *Frontier) AppendRefs(i int, buf []grammar.UserRef) []grammar.UserRef {
	for _, x := range fr.stack(i) {
		buf = append(buf, x.Ref)
	}
	return buf
}

// grow returns s with room for n more elements and a quarter to spare.
// Doubling would be the usual policy; a daemon holds these buffers once per
// predictor, thousands of times, and they stop growing at the widest step.
func grow[T any](s []T, n int) []T {
	need := len(s) + n
	out := make([]T, len(s), max(need+need/4, 4))
	copy(out, s)
	return out
}

// push appends one frame to the arena tail, where the stack under
// construction lies.
// pythia:hotpath — growth is amortized and ends at the widest step.
func (fr *Frontier) push(x Frame) {
	n := len(fr.frames)
	if n == cap(fr.frames) {
		fr.frames = grow(fr.frames, 1)
	}
	fr.frames = fr.frames[:n+1]
	fr.frames[n] = x
}

// emit turns the arena tail from start on into a hypothesis.
// pythia:hotpath — growth is amortized and ends at the widest step.
func (fr *Frontier) emit(start int, w, acc float64) {
	n := len(fr.hyps)
	if n == cap(fr.hyps) {
		fr.hyps = grow(fr.hyps, 1)
	}
	fr.hyps = fr.hyps[:n+1]
	fr.hyps[n] = hyp{off: uint32(start), depth: uint32(len(fr.frames) - start), weight: w, acc: acc}
}

// SetStart makes the frontier the single root-anchored hypothesis at the
// first terminal of the trace (cf. Start); false for an empty grammar.
func (fr *Frontier) SetStart(f *grammar.Frozen) bool {
	fr.Clear()
	if len(f.Rules) == 0 || len(f.Rules[0].Body) == 0 {
		return false
	}
	fr.push(Frame{})
	fr.descend(f, 0, 1, 0)
	return len(fr.hyps) > 0
}

// SetOccurrences makes the frontier the re-anchoring hypotheses of an
// observed event (cf. Occurrences): per grammar site a "staying" and a
// "leaving" hypothesis weighted by occurrence counts, normalised to sum
// to 1. It reports whether the event occurs in the grammar at all.
func (fr *Frontier) SetOccurrences(f *grammar.Frozen, eventID int32) bool {
	fr.Clear()
	sites := f.TermSites[eventID]
	var total float64
	for _, site := range sites {
		run := f.RunAt(site)
		occ := float64(f.Rules[site.Rule].Occ)
		if run.Count > 1 {
			fr.push(Frame{Ref: site})
			fr.emit(len(fr.frames)-1, occ*float64(run.Count-1), 0)
		}
		fr.push(Frame{Ref: site, Iter: run.Count - 1})
		fr.emit(len(fr.frames)-1, occ, 0)
		total += occ * float64(run.Count)
	}
	if total > 0 {
		for i := range fr.hyps {
			fr.hyps[i].weight /= total
		}
	}
	return len(sites) > 0
}

// Set makes the frontier a copy of src, frames compacted.
// pythia:hotpath — opens every look-ahead.
func (fr *Frontier) Set(src *Frontier) {
	fr.Clear()
	for _, h := range src.hyps {
		start := fr.copyStack(src, h)
		fr.emit(start, h.weight, h.acc)
	}
}

// copyStack appends the frames of src's hypothesis h to the arena and
// returns where they start.
// pythia:hotpath — growth is amortized and ends at the widest step.
func (fr *Frontier) copyStack(src *Frontier, h hyp) (start int) {
	start = len(fr.frames)
	end := start + int(h.depth)
	if end > cap(fr.frames) {
		fr.frames = grow(fr.frames, int(h.depth))
	}
	fr.frames = fr.frames[:end]
	copy(fr.frames[start:], src.frames[h.off:h.off+h.depth])
	return start
}

// Step makes the frontier the successors of every hypothesis of src, one
// terminal later, in src's order and each in Successors' order; a successor
// inherits the accumulated time of its origin. src is left untouched and
// must be another frontier.
// pythia:hotpath — one call per observation or look-ahead step with several hypotheses.
func (fr *Frontier) Step(f *grammar.Frozen, src *Frontier) {
	fr.Clear()
	for _, h := range src.hyps {
		start := fr.copyStack(src, h)
		last := &fr.frames[len(fr.frames)-1]
		if last.Iter+1 < f.RunAt(last.Ref).Count {
			// Next repetition of the same terminal run.
			last.Iter++
			fr.emit(start, h.weight, h.acc)
			continue
		}
		fr.climb(f, start, h.weight, h.acc)
	}
}

// AdvanceLone advances the only hypothesis of fr through its unique
// successor when its advance is branch-free: on AdvanceOK the hypothesis has
// moved, its weight is 1 and ev is the event it designates; on AdvanceEnd
// and AdvanceBranch nothing has changed and the caller falls back to Step.
// The advance is worked out in scratch's arena, which is swapped in.
// pythia:hotpath — one call per tracked event on a faithful replay.
func (fr *Frontier) AdvanceLone(f *grammar.Frozen, scratch *Frontier) (ev int32, res AdvanceResult) {
	h := &fr.hyps[0]
	scratch.frames, res = advanceFrames(f, append(scratch.frames[:0], fr.frames[h.off:h.off+h.depth]...))
	if res != AdvanceOK {
		return 0, res
	}
	fr.frames, scratch.frames = scratch.frames, fr.frames
	*h = hyp{depth: uint32(len(fr.frames)), weight: 1}
	return f.RunAt(fr.frames[len(fr.frames)-1].Ref).Sym.Event(), AdvanceOK
}

// climb resolves "the run at the top of the stack under construction (the
// arena from start on) just finished its last repetition": it advances to
// the next run, re-enters a repeating parent, or extends the context
// upward, emitting the resulting hypotheses (cf. the allocating climb).
// pythia:hotpath — rule-boundary advance of every hypothesis.
func (fr *Frontier) climb(f *grammar.Frozen, start int, w, acc float64) {
	if w <= 0 {
		fr.frames = fr.frames[:start]
		return
	}
	for {
		last := len(fr.frames) - 1
		top := fr.frames[last]
		if int(top.Ref.Pos)+1 < len(f.Rules[top.Ref.Rule].Body) {
			// Move to the next run of the same body.
			fr.frames[last] = Frame{Ref: grammar.UserRef{Rule: top.Ref.Rule, Pos: top.Ref.Pos + 1}}
			fr.descend(f, start, w, acc)
			return
		}
		if last == start {
			break
		}
		// Finished the last run of this rule body: one expansion of the
		// parent run completed.
		parent := &fr.frames[last-1]
		prun := f.RunAt(parent.Ref)
		if parent.Iter+1 < prun.Count {
			// Re-enter the same rule for the next repetition.
			parent.Iter++
			fr.frames[last] = Frame{Ref: grammar.UserRef{Rule: prun.Sym.RuleIndex()}}
			fr.descend(f, start, w, acc)
			return
		}
		fr.frames = fr.frames[:last]
	}
	// Popping the anchor frame: the end of the reference trace, or a
	// context above that is not known.
	done := fr.frames[start].Ref.Rule
	fr.frames = fr.frames[:start]
	if done != 0 {
		fr.extendUp(f, done, w, acc)
	}
}

// descend extends the stack under construction downward until it designates
// a terminal run and emits it, or drops it when it cannot get there (an
// empty body; in a validated grammar, never).
// pythia:hotpath — completes every advance.
func (fr *Frontier) descend(f *grammar.Frozen, start int, w, acc float64) {
	var res AdvanceResult
	if fr.frames, res = descendFrames(f, fr.frames); res != AdvanceOK {
		fr.frames = fr.frames[:start]
		return
	}
	fr.emit(start, w, acc)
}

// extendUp handles finishing one expansion of non-root rule done when the
// context above it is unknown: every run referencing the rule is a possible
// context, weighted as in the allocating extendUp — the same expressions in
// the same order, so the weights agree to the last bit.
// pythia:hotpath — upward extension of partial hypotheses.
func (fr *Frontier) extendUp(f *grammar.Frozen, done int32, w, acc float64) {
	users := f.Rules[done].Users
	var denom float64
	for _, u := range users {
		denom += float64(f.Rules[u.Rule].Occ) * float64(f.RunAt(u).Count)
	}
	if denom <= 0 {
		return
	}
	for _, u := range users {
		urun := f.RunAt(u)
		base := w * float64(f.Rules[u.Rule].Occ) * float64(urun.Count) / denom
		if urun.Count > 1 {
			// Re-enter: the unknown completed repetition is approximated by
			// the earliest one, maximising the repetitions still allowed.
			stay := base * float64(urun.Count-1) / float64(urun.Count)
			start := len(fr.frames)
			fr.push(Frame{Ref: u, Iter: 1})
			fr.push(Frame{Ref: grammar.UserRef{Rule: done}})
			fr.descend(f, start, stay, acc)
		}
		leave := base / float64(urun.Count)
		start := len(fr.frames)
		fr.push(Frame{Ref: u, Iter: urun.Count - 1})
		fr.climb(f, start, leave, acc)
	}
}

// KeepEvent drops the hypotheses that do not designate eventID, keeping the
// order of the others.
// pythia:hotpath — one pass per observation with several hypotheses.
func (fr *Frontier) KeepEvent(f *grammar.Frozen, eventID int32) {
	kept := fr.hyps[:0]
	for i, h := range fr.hyps {
		if fr.Terminal(f, i) == eventID {
			kept = append(kept, h)
		}
	}
	fr.hyps = kept
}

// Merger is the reusable scratch of MergeCap: an open-addressed table from
// the hash of a frame stack to the hypothesis first seen with it. The zero
// value is ready for use.
type Merger struct {
	// slots holds 1 + the index of a kept hypothesis, 0 when free; the part
	// in use is a power of two at least twice the hypotheses being merged.
	slots []uint32
	// hashes[i] is the hash of kept hypothesis i.
	hashes []uint64
}

// Cap returns the capacities of the table's buffers.
func (m *Merger) Cap() (slots, hashes int) { return cap(m.slots), cap(m.hashes) }

// MergeCap merges hypotheses with identical frame stacks into the first one
// seen (weights add; accumulated times average by weight, in arrival
// order), sorts stably by descending weight, keeps at most max, and with
// renorm scales the weights to sum to 1.
// pythia:hotpath — closes every multi-hypothesis step.
func (fr *Frontier) MergeCap(m *Merger, max int, renorm bool) {
	if len(fr.hyps) > 1 {
		fr.mergeDuplicates(m)
		slices.SortStableFunc(fr.hyps, func(a, b hyp) int {
			switch {
			case a.weight > b.weight:
				return -1
			case a.weight < b.weight:
				return 1
			}
			return 0
		})
	}
	if len(fr.hyps) > max {
		fr.hyps = fr.hyps[:max]
	}
	if !renorm {
		return
	}
	var total float64
	for _, h := range fr.hyps {
		total += h.weight
	}
	if total > 0 {
		for i := range fr.hyps {
			fr.hyps[i].weight /= total
		}
	}
}

// mergeDuplicates compacts the headers to one per distinct frame stack. The
// hash only routes: a hit is confirmed by comparing the frames.
// pythia:hotpath — one probe per hypothesis.
func (fr *Frontier) mergeDuplicates(m *Merger) {
	n := len(fr.hyps)
	size := 8
	for size < 2*n {
		size <<= 1
	}
	if cap(m.slots) < size || cap(m.hashes) < n {
		m.slots = slices.Grow(m.slots[:0], size)
		m.hashes = slices.Grow(m.hashes[:0], n)
	}
	slots, hashes := m.slots[:size], m.hashes[:n]
	clear(slots)
	mask := uint32(size - 1)
	kept := 0
	for _, h := range fr.hyps {
		stack := fr.frames[h.off : h.off+h.depth]
		k := hashFrames(stack)
		for s := uint32(k) & mask; ; s = (s + 1) & mask {
			at := slots[s]
			if at == 0 {
				slots[s] = uint32(kept) + 1
				hashes[kept] = k
				fr.hyps[kept] = h
				kept++
				break
			}
			if o := &fr.hyps[at-1]; hashes[at-1] == k && slices.Equal(fr.frames[o.off:o.off+o.depth], stack) {
				if w1, w2 := o.weight, h.weight; w1+w2 > 0 {
					o.acc = (o.acc*w1 + h.acc*w2) / (w1 + w2)
				}
				o.weight += h.weight
				break
			}
		}
	}
	fr.hyps = fr.hyps[:kept]
}

// hashFrames mixes a frame stack into 64 bits.
// pythia:hotpath — one call per hypothesis per merge.
func hashFrames(stack []Frame) uint64 {
	k := uint64(len(stack))
	for _, x := range stack {
		k = (k ^ (uint64(uint32(x.Ref.Rule))<<32 | uint64(uint32(x.Ref.Pos)))) * 0x9E3779B97F4A7C15
		k = (k ^ k>>29 ^ uint64(x.Iter)) * 0xBF58476D1CE4E5B9
	}
	return k ^ k>>32
}
