package model

import (
	"math/bits"

	"repro/internal/grammar"
)

// contexts is the interned table of timing-context suffixes that a
// TimingBuilder fills and a Timing keeps. Each distinct suffix has one dense
// slot. The slot of a depth-d suffix is found from the slot of its
// depth-(d-1) tail and the one run it adds on the outside, so resolving a
// context costs at most MaxContextDepth probes of a small open-addressed
// table, the deepest slot names the whole chain, and a suffix is never
// interned without its tails. The zero value is an empty table.
type contexts struct {
	// ctxs holds one entry per distinct suffix in first-seen order; the
	// index is the suffix's slot.
	ctxs []timingCtx
	// cells is the open-addressed index over ctxs (power-of-two size,
	// linear probing, no deletion): slot+1, 0 marking a free cell.
	cells []int32
	// shift is 64 - log2(len(cells)), the multiplicative-hash shift.
	shift uint
}

// timingCtx is one interned context suffix.
type timingCtx struct {
	tail int32           // slot of the suffix one run shorter; -1 for a single run
	ref  grammar.UserRef // the run this suffix adds in front of its tail
	stat Stat
}

// chain returns the deepest slot of the context chain of a progress
// sequence (refs topmost-first, last entry is the terminal run), interning
// the suffixes not seen before; -1 for an empty sequence.
// pythia:hotpath — at most MaxContextDepth probes per terminal run walked.
func (c *contexts) chain(refs []grammar.UserRef) int32 {
	slot := int32(-1)
	for i, outermost := len(refs)-1, max(0, len(refs)-MaxContextDepth); i >= outermost; i-- {
		s := c.find(slot, refs[i])
		if s < 0 {
			s = c.intern(slot, refs[i])
		}
		slot = s
	}
	return slot
}

// find returns the slot of the suffix made of ref in front of the suffix
// tail, or -1 when it is not interned.
// pythia:hotpath — one probe sequence per context depth per lookup.
func (c *contexts) find(tail int32, ref grammar.UserRef) int32 {
	if len(c.cells) == 0 {
		return -1
	}
	mask := uint64(len(c.cells) - 1)
	for i := ctxHash(tail, ref) >> c.shift; ; i = (i + 1) & mask {
		s := c.cells[i]
		if s == 0 {
			return -1
		}
		if e := &c.ctxs[s-1]; e.tail == tail && e.ref == ref {
			return s - 1
		}
	}
}

// ctxHash mixes the three integers of a context key into 64 well-spread
// bits; the table keeps the top ones.
func ctxHash(tail int32, ref grammar.UserRef) uint64 {
	h := uint64(uint32(tail))*0x9E3779B97F4A7C15 ^ (uint64(uint32(ref.Rule))<<32 | uint64(uint32(ref.Pos)))
	return h * 0xFF51AFD7ED558CCD
}

// intern gives a context not seen before the next slot, doubling the index
// when it would pass half full. Off the per-event path: it runs once per
// distinct context.
func (c *contexts) intern(tail int32, ref grammar.UserRef) int32 {
	c.ctxs = append(c.ctxs, timingCtx{tail: tail, ref: ref})
	slot := int32(len(c.ctxs) - 1)
	if 2*len(c.ctxs) <= len(c.cells) {
		c.place(slot)
		return slot
	}
	n := max(2*len(c.cells), 64)
	c.cells = make([]int32, n)
	c.shift = uint(64 - bits.TrailingZeros(uint(n)))
	for s := range c.ctxs {
		c.place(int32(s))
	}
	return slot
}

// place enters slot, known to be absent, in the first free cell of its
// probe sequence.
func (c *contexts) place(slot int32) {
	e := &c.ctxs[slot]
	mask := uint64(len(c.cells) - 1)
	i := ctxHash(e.tail, e.ref) >> c.shift
	for c.cells[i] != 0 {
		i = (i + 1) & mask
	}
	c.cells[i] = slot + 1
}

// TimingBuilder accumulates the observations of one timing replay (the
// recorder's end-of-run walk over the recorded trace, see Replay) and yields
// the Timing that feeding the same observations to Timing.AddPath would
// yield — at the cost of one context table probe per depth per terminal
// run, not per event. Stats are merged into the slots of the context table
// the Timing then keeps as it is. A Stat is four integers (count, sum, min,
// max), all order-independent, so the result is identical to AddPath's
// whatever order either side accumulates in. AddPath stays as the
// reference the tests compare this against.
//
// The zero value is an empty builder ready for use.
type TimingBuilder struct {
	// ctx is the context table, handed to the Timing.
	ctx contexts
	// byEvent is the context-free statistic, indexed by event id.
	byEvent []Stat
	// memo is Replay's reusable memo, at most memoCap events long.
	memo memo
	// memoised counts the events Replay folded from a memo.
	memoised int64
}

// merge folds s into every context of the chain ending in slot and into the
// statistic of event eventID (non-negative).
// pythia:hotpath — one call per terminal run walked and per memo entry.
func (b *TimingBuilder) merge(slot, eventID int32, s Stat) {
	for ; slot >= 0; slot = b.ctx.ctxs[slot].tail {
		b.ctx.ctxs[slot].stat.Merge(s)
	}
	if int(eventID) >= len(b.byEvent) {
		b.growEvents(eventID)
	}
	b.byEvent[eventID].Merge(s)
}

// growEvents extends byEvent to cover eventID.
func (b *TimingBuilder) growEvents(eventID int32) {
	b.byEvent = append(b.byEvent, make([]Stat, int(eventID)+1-len(b.byEvent))...)
}

// Timing hands the context table over to the returned model, with one
// ByEvent entry per event id observed, and empties the builder's table.
func (b *TimingBuilder) Timing() *Timing {
	t := &Timing{ctx: b.ctx, ByEvent: make(map[int32]Stat, len(b.byEvent))}
	b.ctx = contexts{}
	for id, s := range b.byEvent {
		if s.Count > 0 {
			t.ByEvent[int32(id)] = s
		}
	}
	return t
}
