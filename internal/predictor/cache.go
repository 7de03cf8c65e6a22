package predictor

// The incremental prediction cache (this file) makes the steady-state
// oracle loop — one Observe plus one PredictAt per event on a faithful
// replay — amortized O(1) and allocation-free. A fresh simulate walk costs
// O(distance) per query (paper Fig. 9); on the single-hypothesis fast path
// the walk is branch-free and deterministic, so its result can be memoized
// as a sliding window of future events:
//
//   - the window holds the next events (and their per-step expected
//     durations) from the current position onward; queries read it
//     directly, extending it on demand with one in-place Stepper advance
//     per step;
//   - Observe slides the window by one entry instead of discarding it
//     (consumeCache), keeping the cached look-ahead valid across the whole
//     replay;
//   - any event that breaks the single-hypothesis fast path — re-anchor,
//     branching, multi-candidate tracking, Reset — invalidates the cache
//     (invalidate); the next query rebuilds it from the current position,
//     reusing all buffers.
//
// Invariant: while the cache is valid, the end stepper's position equals
// the current position advanced by len(evs)-head terminals, and evs[head+i]
// is the event i+1 steps from now. Expected durations are stored per step
// (means) and summed on read in ascending order, so cached results are
// bit-identical to a fresh walk's accumulation — the property the
// differential tests pin down.

import "repro/internal/progress"

// cacheState describes whether the window can still grow.
type cacheState uint8

const (
	// cacheExtendable: the end stepper can advance further.
	cacheExtendable cacheState = iota
	// cacheEnded: the walk reached the end of the reference trace.
	cacheEnded
	// cacheBranched: the walk is no longer branch-free beyond the window;
	// queries past it fall back to the general machinery.
	cacheBranched
)

// predCache is the memoized branch-free look-ahead window.
type predCache struct {
	valid bool
	state cacheState
	// evs[head+i] is the event id predicted i+1 steps from now; entries
	// below head are consumed.
	evs  []int32
	head int
	// means[j] is the expected duration of the step predicting evs[j]
	// (zero without a timing model).
	means []float64
	// end is the position after the last cached step.
	end progress.Stepper
}

// invalidate drops all incremental state after a hypothesis-set change
// outside the fast paths (re-anchor, branching, Reset, StartAtBeginning).
func (p *Predictor) invalidate() {
	p.cache.valid = false
	p.look.valid = false
}

// cacheUsable reports whether queries may be served from the incremental
// cache, (re)building it at the current position if needed. The cache
// serves a lone, non-pending hypothesis with caching enabled.
func (p *Predictor) cacheUsable() bool {
	if p.cfg.DisableCache || p.pending || p.cands.Len() != 1 {
		return false
	}
	if !p.cache.valid {
		p.buildCache()
	}
	return true
}

// buildCache seeds the cache at the current single hypothesis; the window
// starts empty and grows on demand. All buffers are reused.
func (p *Predictor) buildCache() {
	c := &p.cache
	c.evs = c.evs[:0]
	c.means = c.means[:0]
	c.head = 0
	c.state = cacheExtendable
	c.end.Reset(p.f, p.cands.View(0))
	c.valid = true
}

// ensureWindow grows the window to n unconsumed entries and returns the
// number available, which is smaller than n when the walk reaches the end
// of the trace or branches first. Window growth is amortized allocation-
// free: the backing arrays stop growing once the largest query distance has
// been seen, and consumeCache compacts the consumed prefix in place.
// pythia:hotpath — one in-place advance per new window step.
func (p *Predictor) ensureWindow(n int) int {
	c := &p.cache
	for len(c.evs)-c.head < n && c.state == cacheExtendable {
		switch c.end.Advance() {
		case progress.AdvanceOK:
			ev := c.end.Terminal()
			var mean float64
			if p.timing != nil {
				p.refsBuf = c.end.AppendRefs(p.refsBuf[:0])
				mean = p.timing.MeanForPath(p.refsBuf, ev)
			}
			c.evs = append(c.evs, ev)
			c.means = append(c.means, mean)
		case progress.AdvanceEnd:
			c.state = cacheEnded
		case progress.AdvanceBranch:
			c.state = cacheBranched
		}
	}
	return len(c.evs) - c.head
}

// consumeCache slides the window past one observed event: the cache
// advance, O(1) amortized. With an empty window the origin can no longer
// move in lockstep, so the cache is dropped and the next query rebuilds it
// from the current position (reusing the buffers).
// pythia:hotpath — one call per observation on the fast path.
func (p *Predictor) consumeCache() {
	c := &p.cache
	if !c.valid {
		return
	}
	if c.head == len(c.evs) {
		c.valid = false
		return
	}
	c.head++
	switch {
	case c.head == len(c.evs):
		c.evs = c.evs[:0]
		c.means = c.means[:0]
		c.head = 0
	case c.head >= 1024 && 2*c.head >= len(c.evs):
		// Compact the consumed prefix so the arrays stop growing: copy
		// the live window down and re-origin head. Amortized O(1) per
		// consume, no allocation.
		m := copy(c.evs, c.evs[c.head:])
		copy(c.means, c.means[c.head:])
		c.evs = c.evs[:m]
		c.means = c.means[:m]
		c.head = 0
	}
}

// observeSingle advances the lone hypothesis through its unique successor,
// the tracking fast path: the candidate set stays a single hypothesis of
// weight 1 and the window slides instead of being rebuilt. It reports false
// when the advance would branch, leaving the predictor untouched so the
// caller falls through to the general step.
// pythia:hotpath — zero allocations per observation in steady state.
func (p *Predictor) observeSingle(eventID int32) bool {
	ev, res := p.cands.AdvanceLone(p.f, p.spare)
	if res == progress.AdvanceBranch {
		return false
	}
	if res == progress.AdvanceEnd || ev != eventID {
		// No successor, the outcome of an empty general step; or one that
		// is not the event, and a branch-free walk has no other.
		p.reAnchor(eventID)
		return true
	}
	p.stats.Followed++
	p.consumeCache()
	return true
}
