package model

import (
	"math/bits"

	"repro/internal/grammar"
)

// TimingBuilder accumulates the observations of one timing replay (the
// recorder's end-of-run walk over the recorded trace, see Replay) and yields
// the Timing that feeding the same observations to Timing.AddPath would
// yield — without AddPath's per-observation cost of a heap key and a map
// read and write for every context depth.
//
// Each distinct context suffix is interned once into a dense slot. The slot
// of a depth-d suffix is found from the slot of its depth-(d-1) tail and the
// one run it adds on the outside, so resolving a context costs at most
// MaxContextDepth probes of a small open-addressed table, and the deepest
// slot names the whole chain; Stats live in a flat slice, and the SuffixKey
// strings and the two maps are built once per distinct context by Timing. A
// Stat is four integers (count, sum, min, max), all order-independent, so
// the result is identical to AddPath's whatever order either side
// accumulates in. AddPath stays as the reference the tests compare this
// against.
//
// The zero value is an empty builder ready for use.
type TimingBuilder struct {
	// ctxs holds one entry per distinct suffix in first-seen order; the
	// index is the suffix's slot.
	ctxs []timingCtx
	// cells is the open-addressed index over ctxs (power-of-two size,
	// linear probing, no deletion): slot+1, 0 marking a free cell.
	cells []int32
	// shift is 64 - log2(len(cells)), the multiplicative-hash shift.
	shift uint
	// byEvent is the context-free statistic, indexed by event id.
	byEvent []Stat
	// memo is Replay's reusable memo, at most memoCap events long.
	memo memo
	// memoised counts the events Replay folded from a memo.
	memoised int64
}

// timingCtx is one interned context suffix.
type timingCtx struct {
	tail int32           // slot of the suffix one run shorter; -1 for a single run
	ref  grammar.UserRef // the run this suffix adds in front of its tail
	stat Stat
}

// chain returns the deepest slot of the context chain of a progress
// sequence (refs topmost-first, last entry is the terminal run), interning
// the suffixes not seen before.
// pythia:hotpath — at most MaxContextDepth probes per terminal run walked.
func (b *TimingBuilder) chain(refs []grammar.UserRef) int32 {
	slot := int32(-1)
	for i, outermost := len(refs)-1, max(0, len(refs)-MaxContextDepth); i >= outermost; i-- {
		slot = b.slot(slot, refs[i])
	}
	return slot
}

// merge folds s into every context of the chain ending in slot and into the
// statistic of event eventID (non-negative).
// pythia:hotpath — one call per terminal run walked and per memo entry.
func (b *TimingBuilder) merge(slot, eventID int32, s Stat) {
	for ; slot >= 0; slot = b.ctxs[slot].tail {
		b.ctxs[slot].stat.Merge(s)
	}
	if int(eventID) >= len(b.byEvent) {
		b.growEvents(eventID)
	}
	b.byEvent[eventID].Merge(s)
}

// slot returns the slot of the suffix made of ref in front of the suffix
// tail, interning it on first sight.
// pythia:hotpath — one probe sequence per context depth per chain resolved.
func (b *TimingBuilder) slot(tail int32, ref grammar.UserRef) int32 {
	if len(b.cells) != 0 {
		mask := uint64(len(b.cells) - 1)
		for i := ctxHash(tail, ref) >> b.shift; ; i = (i + 1) & mask {
			c := b.cells[i]
			if c == 0 {
				break
			}
			if e := &b.ctxs[c-1]; e.tail == tail && e.ref == ref {
				return c - 1
			}
		}
	}
	return b.intern(tail, ref)
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
func (b *TimingBuilder) intern(tail int32, ref grammar.UserRef) int32 {
	b.ctxs = append(b.ctxs, timingCtx{tail: tail, ref: ref})
	slot := int32(len(b.ctxs) - 1)
	if 2*len(b.ctxs) <= len(b.cells) {
		b.place(slot)
		return slot
	}
	n := max(2*len(b.cells), 64)
	b.cells = make([]int32, n)
	b.shift = uint(64 - bits.TrailingZeros(uint(n)))
	for s := range b.ctxs {
		b.place(int32(s))
	}
	return slot
}

// place enters slot, known to be absent, in the first free cell of its
// probe sequence.
func (b *TimingBuilder) place(slot int32) {
	e := &b.ctxs[slot]
	mask := uint64(len(b.cells) - 1)
	i := ctxHash(e.tail, e.ref) >> b.shift
	for b.cells[i] != 0 {
		i = (i + 1) & mask
	}
	b.cells[i] = slot + 1
}

// growEvents extends byEvent to cover eventID.
func (b *TimingBuilder) growEvents(eventID int32) {
	b.byEvent = append(b.byEvent, make([]Stat, int(eventID)+1-len(b.byEvent))...)
}

// Timing returns the accumulated model: one BySuffix entry per interned
// context, keyed as SuffixKey keys it, and one ByEvent entry per event id
// observed.
func (b *TimingBuilder) Timing() *Timing {
	t := &Timing{
		BySuffix: make(map[string]Stat, len(b.ctxs)),
		ByEvent:  make(map[int32]Stat, len(b.byEvent)),
	}
	var refs [MaxContextDepth]grammar.UserRef
	for i := range b.ctxs {
		// Following the tails from a suffix visits its runs outermost
		// first, the order SuffixKey takes them in.
		d := 0
		for s := int32(i); s >= 0; s = b.ctxs[s].tail {
			refs[d] = b.ctxs[s].ref
			d++
		}
		t.BySuffix[SuffixKey(refs[:d], d)] = b.ctxs[i].stat
	}
	for id, s := range b.byEvent {
		if s.Count > 0 {
			t.ByEvent[int32(id)] = s
		}
	}
	return t
}
