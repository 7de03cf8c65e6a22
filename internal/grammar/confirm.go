package grammar

import "fmt"

// The confirming fast path.
//
// Most events of a loop-heavy trace arrive while the root ends in a run R^k
// whose loop is repeating, and a repetition of such a loop usually leaves
// the grammar exactly as it found it apart from k → k+1: the reduction
// builds the same transient rules and inlines them again. The confirmer
// recognises that once and from then on counts repetitions instead of
// reducing them. While armed, an event equal to the next terminal of
// unfold(R) costs one compare; a completed repetition bumps k.
//
// Arming is exact, not a heuristic. The reduction is a deterministic
// function of the rule bodies, the digram index, the free rule indexes and
// the incoming events, so a repetition that took the grammar from state S
// (ending in R^k) back to S with R^(k+1) does the same again from there,
// provided nothing it decided read k or the order of the free list:
//
//   - match reads its participants' counts (min of the two occurrences,
//     whole-body reuse), so no match of the observed repetition may have had
//     the R^k run among its four participants; elsewhere a run's count is
//     only added to;
//   - rules created inside a repetition take their indexes off the free
//     list. Equal sets in another order give the same edits under a
//     relabelling, and the repetition permutes the list the same way each
//     time (CG's temporaries swap the top two indexes), so the permutation
//     is replayed at each counted completion — Freeze's dense renumbering
//     then matches the reduction's;
//   - R.uses is at least k ≥ 2 throughout, so rule utility never fires on R.
//
// The state compared at two consecutive increments of the same run is every
// rule body (symbols and counts), every uses, that the digram index holds
// exactly one entry per adjacent pair and at that pair, len(rules) and the
// free list as a set. The events of a repetition all arrive through
// Append: a repetition holding a longer AppendRun is not counted. A counted
// repetition also repeats the matches of the observed one, so if those
// touched another watched run, that run's window is spoiled too.
//
// RuleCount and NodeCount inside a counted repetition return what the
// reduction reported after the same event of the observed repetition (logged
// while a snapshot's window is open), so record-mode budgets truncate at the
// same event. A diverging event reduces the events counted so far in the
// repetition, then itself. Structure readers (Freeze, Dump, Walk, Unfold,
// ExpandedLength, CheckInvariants*) first reduce those events too; the loop
// then stays resumable and re-arms at its next completion against the
// boundary state, since learning sessions and checkpoints Freeze every
// epoch.
//
// A snapshot and a comparison each cost O(grammar) and allocate nothing
// once the buffers have grown. The shape (live rules and nodes, len(rules),
// len(free)) must repeat before a snapshot is taken, and the work is
// budgeted: at most one snapshot entry written or compared per event
// recorded plus one per event counted. Over budget, the confirmer stops
// following runs until later events pay for the overdraft, so a stream of
// loops too short to pay back is slowed by a bounded share.

const (
	// confirmWatches is how many root runs the confirmer follows: a loop
	// nest brings each of its levels to the root's end in turn.
	confirmWatches = 4
	// confirmMaxLen caps the expansion, in events, of a loop the fast path
	// counts; it bounds the per-event buffers.
	confirmMaxLen = 1 << 13
)

// nilRule marks a free rule index in a snapshot; uses are never negative.
const nilRule = ^uint64(0)

// watch follows one run that sat last in the root with a count of two or
// more.
type watch struct {
	n     *node
	stamp uint32 // the confirmer's tick at the last sighting, for LRU eviction

	// The run's count and the grammar's shape at the last increment.
	count                       uint32
	events                      int64
	rules, nodes, nrules, nfree int

	snapped   bool // snap holds the grammar at the last increment; the window since is logged
	resumable bool // snap and the confirmer's loop hold a loop a read disarmed
	touched   bool // since the last increment a match read n's count, or the window is unusable
	foreign   bool // since the last increment a match touched another watched run

	// snap is the grammar at the last increment: per rule index, nilRule or
	// the rule's uses followed by its packed runs and a 0; then the free
	// list.
	snap []uint64
}

// loopStep is one event of the armed loop and the transient rule and node
// counts the reduction reported after it.
type loopStep struct{ event, rules, nodes int32 }

// confirmer is the fast path's state, embedded in Grammar.
type confirmer struct {
	off bool // the reduction alone, as a reference; only tests set it

	watches [confirmWatches]watch
	tick    uint32

	arm     *watch     // the run whose repetitions are being counted, or nil
	pos     int        // events of the current repetition counted so far
	loop    []loopStep // unfold(R) of the armed or resumable run
	foreign bool       // the loop's observed repetition touched other watched runs
	perm    []int32    // free-list permutation one repetition applies
	permID  bool       // perm is the identity
	tmp     []int32    // scratch for applying perm, sharing perm's array

	open  int     // watches with an open window
	ring  []int32 // (rules, nodes) after event e at 2*(e & (len(ring)/2-1))
	marks []int32 // scratch for the free-list compare, all zero between uses

	replaying bool  // reducing counted events again; nothing arms meanwhile
	spent     int64 // snapshot entries written and compared for windows
	confirmed int64 // events counted in completed repetitions
}

// confirmNext counts eventID if it is the next event of the armed loop.
// pythia:hotpath — one compare per event of a confirmed repetition.
func (g *Grammar) confirmNext(eventID int32) bool {
	c := &g.cf
	step := c.loop[c.pos]
	if step.event != eventID {
		return false
	}
	g.eventCount++
	if c.open > 0 {
		c.log(g.eventCount-1, step.rules, step.nodes)
	}
	c.pos++
	if c.pos == len(c.loop) {
		g.completeRepetition()
	}
	return true
}

// completeRepetition does what a verified repetition does to the grammar:
// R^k becomes R^(k+1) and the free list takes the recorded permutation.
func (g *Grammar) completeRepetition() {
	c := &g.cf
	c.pos = 0
	c.confirmed += int64(len(c.loop))
	n := c.arm.n
	n.count++
	g.noteCountDelta(n, 1)
	if !c.permID {
		copy(c.tmp, g.free)
		for i, j := range c.perm {
			g.free[i] = c.tmp[j]
		}
	}
}

// log records the transient counts after event e for the open windows.
func (c *confirmer) log(e int64, rules, nodes int32) {
	s := 2 * (int(e) & (len(c.ring)/2 - 1))
	c.ring[s], c.ring[s+1] = rules, nodes
}

// disarm stops counting and rewinds the event count to the boundary of the
// current repetition, which is where the structure stands. It returns the
// run and how many events of the repetition were counted.
func (g *Grammar) disarm() (*watch, int) {
	c := &g.cf
	w, pos := c.arm, c.pos
	c.arm, c.pos = nil, 0
	g.eventCount -= int64(pos)
	w.count, w.events = w.n.count, g.eventCount
	return w, pos
}

// replay reduces the first pos events of the loop.
func (g *Grammar) replay(pos int) {
	c := &g.cf
	c.replaying = true
	for i := 0; i < pos; i++ {
		g.reduce(c.loop[i].event, 1)
	}
	c.replaying = false
}

// diverge ends the armed loop on an event it did not predict; the caller
// reduces that event next.
func (g *Grammar) diverge() {
	_, pos := g.disarm()
	g.replay(pos)
}

// settle brings the structure up to date before a read. A loop disarmed
// here stays resumable: the boundary state is snapshotted again, and the
// next completion re-arms against it.
func (g *Grammar) settle() {
	if g.cf.pos == 0 {
		return
	}
	w, pos := g.disarm()
	g.mark(w)
	w.resumable = g.snapshot(w)
	g.replay(pos)
}

// watchRoot follows the root's last run after a reduced event: it logs the
// transient counts for open windows and notices a watched run's increments.
// pythia:hotpath — a few loads per reduced event unless a run completes.
func (g *Grammar) watchRoot(count uint32) {
	c := &g.cf
	if c.open > 0 {
		c.log(g.eventCount-1, int32(g.liveRules), int32(g.liveNodes))
	}
	if count != 1 {
		c.taint(nil)
	}
	last := g.rules[0].guard.prev
	if last.sym.IsTerminal() || last.count < 2 || c.spent > g.eventCount+c.confirmed {
		return // not a run that can repeat, or over budget
	}
	if !last.watched {
		g.adopt(last)
		return
	}
	w := c.find(last)
	c.tick++
	w.stamp = c.tick
	if last.count != w.count+1 {
		c.close(w)
		g.mark(w)
		return
	}
	g.completion(w)
}

// completion handles one increment of a watched run: arm if the repetition
// just observed left the grammar as it found it, otherwise make this
// increment the new reference point.
func (g *Grammar) completion(w *watch) {
	c := &g.cf
	span := g.eventCount - w.events
	same := g.liveRules == w.rules && g.liveNodes == w.nodes &&
		len(g.rules) == w.nrules && len(g.free) == w.nfree
	ok := same && !w.touched && !c.replaying
	switch {
	case w.resumable:
		w.resumable = false
		if ok && span == int64(len(c.loop)) && g.sameAsSnapshot(w) {
			g.arm(w)
			return
		}
	case w.snapped:
		c.close(w)
		if ok && span <= int64(len(c.ring)/2) && g.sameAsSnapshot(w) {
			// c.loop is about to hold w's loop instead of a resumable one.
			for i := range c.watches {
				c.watches[i].resumable = false
			}
			if g.fill(w, span) {
				c.foreign = w.foreign
				g.arm(w)
				return
			}
		}
	}
	g.mark(w)
	// A window costs a snapshot now and a comparison at the next completion.
	cost := 2 * int64(len(g.rules)+g.liveRules+g.liveNodes+len(g.free))
	if same && span <= confirmMaxLen && c.spent+cost <= g.eventCount+c.confirmed && g.snapshot(w) {
		c.spent += cost
		c.growRing(span, g.eventCount)
		w.snapped = true
		c.open++
	}
}

// arm starts counting w's repetitions; c.loop and c.perm hold its loop.
func (g *Grammar) arm(w *watch) {
	c := &g.cf
	if c.foreign {
		c.taint(w)
	}
	g.mark(w)
	c.arm, c.pos = w, 0
}

// fill loads c.loop with unfold(R) for w's run R and the transient counts
// logged over the window of span events since w's snapshot.
func (g *Grammar) fill(w *watch, span int64) bool {
	c := &g.cf
	if cap(c.loop) < len(c.ring)/2 {
		c.loop = make([]loopStep, 0, len(c.ring)/2)
	}
	c.loop = g.unfoldSteps(c.loop[:0], g.ruleOf(w.n.sym))
	if int64(len(c.loop)) != span {
		return false
	}
	for i := range c.loop {
		s := 2 * (int(w.events+int64(i)) & (len(c.ring)/2 - 1))
		c.loop[i].rules, c.loop[i].nodes = c.ring[s], c.ring[s+1]
	}
	return true
}

// unfoldSteps appends the expansion of r to out, one step per terminal.
func (g *Grammar) unfoldSteps(out []loopStep, r *rule) []loopStep {
	for n := r.guard.next; !n.guard; n = n.next {
		for i := uint32(0); i < n.count; i++ {
			if n.sym.IsTerminal() {
				out = append(out, loopStep{event: n.sym.Event()})
			} else {
				out = g.unfoldSteps(out, g.ruleOf(n.sym))
			}
		}
	}
	return out
}

// mark makes the present the reference point of w: its count and the
// grammar's shape, with a fresh window for touches.
func (g *Grammar) mark(w *watch) {
	w.count, w.events = w.n.count, g.eventCount
	w.rules, w.nodes, w.nrules, w.nfree = g.liveRules, g.liveNodes, len(g.rules), len(g.free)
	w.touched, w.foreign = false, false
}

// packRun encodes a run for a snapshot; never 0, since counts are positive.
func packRun(s Sym, count uint32) uint64 { return uint64(uint32(s))<<32 | uint64(count) }

// snapshot records the grammar in w.snap. It reports false when the digram
// index does not hold exactly one entry per adjacent pair, at that pair —
// the index state the comparison relies on.
func (g *Grammar) snapshot(w *watch) bool {
	if need := len(g.rules) + g.liveRules + g.liveNodes + len(g.free); cap(w.snap) < need {
		w.snap = make([]uint64, 0, 2*need)
	}
	s := w.snap[:0]
	pairs := 0
	for _, r := range g.rules {
		if r == nil {
			s = append(s, nilRule)
			continue
		}
		s = append(s, uint64(r.uses))
		for n := r.guard.next; !n.guard; n = n.next {
			s = append(s, packRun(n.sym, n.count))
			if !n.next.guard {
				if g.ixGet(digram{n.sym, n.next.sym}) != n {
					return false
				}
				pairs++
			}
		}
		s = append(s, 0)
	}
	for _, f := range g.free {
		s = append(s, uint64(f))
	}
	w.snap = s
	return pairs == g.tab.count
}

// sameAsSnapshot reports whether the grammar equals w.snap apart from w's
// run having one more repetition (its count and its rule's uses up by one)
// and the free list's order; it leaves that order's permutation in c.perm.
// The caller has checked the shape, so both walks have the same length and
// the first difference stops them.
func (g *Grammar) sameAsSnapshot(w *watch) bool {
	s := w.snap
	if len(s) != len(g.rules)+g.liveRules+g.liveNodes+len(g.free) {
		return false
	}
	R := w.n.sym.RuleIndex()
	i, pairs := 0, 0
	for idx, r := range g.rules {
		if r == nil {
			if s[i] != nilRule {
				return false
			}
			i++
			continue
		}
		uses := r.uses
		if int32(idx) == R {
			uses--
		}
		if s[i] != uint64(uses) {
			return false
		}
		i++
		for n := r.guard.next; !n.guard; n = n.next {
			count := n.count
			if n == w.n {
				count--
			}
			if s[i] != packRun(n.sym, count) {
				return false
			}
			i++
			if !n.next.guard {
				if g.ixGet(digram{n.sym, n.next.sym}) != n {
					return false
				}
				pairs++
			}
		}
		if s[i] != 0 {
			return false
		}
		i++
	}
	return pairs == g.tab.count && g.freePermutation(s[i:])
}

// freePermutation reports whether the free list holds the indexes of was,
// recording in c.perm where each entry came from.
func (g *Grammar) freePermutation(was []uint64) bool {
	c := &g.cf
	if len(c.marks) < len(g.rules) {
		c.marks = make([]int32, 2*len(g.rules))
	}
	for j, f := range was {
		c.marks[f] = int32(j + 1)
	}
	n := len(g.free)
	if cap(c.perm) < 2*n {
		c.perm = make([]int32, 0, 4*n)
	}
	c.perm, c.tmp, c.permID = c.perm[:n], c.perm[n:2*n], true
	ok := true
	for i, f := range g.free {
		j := c.marks[f] - 1
		if j < 0 {
			ok = false
			break
		}
		c.marks[f] = 0
		c.perm[i] = j
		c.permID = c.permID && int(j) == i
	}
	for _, f := range was {
		c.marks[f] = 0
	}
	return ok
}

// growRing makes the log hold at least span events, keeping the ones an
// open window logged before now.
func (c *confirmer) growRing(span, now int64) {
	size := 64
	for int64(size) < span {
		size <<= 1
	}
	old := len(c.ring) / 2
	if size <= old {
		return
	}
	ring := make([]int32, 2*size)
	for e := max(now-int64(old), 0); e < now && old > 0; e++ {
		s, d := 2*(int(e)&(old-1)), 2*(int(e)&(size-1))
		ring[d], ring[d+1] = c.ring[s], c.ring[s+1]
	}
	c.ring = ring
}

// adopt starts watching n, evicting the least recently seen run if need be.
func (g *Grammar) adopt(n *node) {
	c := &g.cf
	w := &c.watches[0]
	for i := range c.watches {
		v := &c.watches[i]
		if v.n == nil {
			w = v
			break
		}
		if v.stamp < w.stamp {
			w = v
		}
	}
	if w.n != nil {
		c.evict(w)
	}
	w.n, n.watched = n, true
	c.tick++
	w.stamp = c.tick
	g.mark(w)
}

// find returns the watch on n, which carries the watched flag.
func (c *confirmer) find(n *node) *watch {
	for i := range c.watches {
		if c.watches[i].n == n {
			return &c.watches[i]
		}
	}
	panic("pythia: internal: grammar: watched run without a watch")
}

// unwatch drops the watch on n, a run leaving the grammar.
func (c *confirmer) unwatch(n *node) { c.evict(c.find(n)) }

// evict empties w, keeping its snapshot buffer.
func (c *confirmer) evict(w *watch) {
	c.close(w)
	w.n.watched = false
	*w = watch{snap: w.snap}
}

// close ends w's window and any resumable loop it holds.
func (c *confirmer) close(w *watch) {
	if w.snapped {
		w.snapped = false
		c.open--
	}
	w.resumable = false
}

// touch records a match with the given participants, at least one of them
// watched.
func (c *confirmer) touch(l, r, m, m2 *node) {
	for i := range c.watches {
		w := &c.watches[i]
		switch {
		case w.n == nil:
		case w.n == l || w.n == r || w.n == m || w.n == m2:
			w.touched = true
		default:
			w.foreign = true
		}
	}
}

// taint makes every window but except's unusable for arming.
func (c *confirmer) taint(except *watch) {
	for i := range c.watches {
		if w := &c.watches[i]; w != except {
			w.touched = true
		}
	}
}

// checkWatches verifies the confirmer's view of the grammar: every watch is
// on a live root run carrying the watched flag, no other node or pooled
// node carries it, and the open-window count is right.
func (g *Grammar) checkWatches() error {
	c := &g.cf
	if c.pos != 0 {
		return fmt.Errorf("grammar: %d counted events left unreduced", c.pos)
	}
	watched, open := 0, 0
	for i := range c.watches {
		w := &c.watches[i]
		if w.n == nil {
			continue
		}
		watched++
		if w.snapped {
			open++
		}
		if !w.n.watched || w.n.rule != g.root() || w.n.sym.IsTerminal() {
			return fmt.Errorf("grammar: watch %d is not on a live root run", i)
		}
	}
	if open != c.open {
		return fmt.Errorf("grammar: %d open windows, counter %d", open, c.open)
	}
	flagged := 0
	for _, r := range g.rules {
		if r == nil {
			continue
		}
		for n := r.guard.next; !n.guard; n = n.next {
			if n.watched {
				flagged++
			}
		}
	}
	for _, n := range g.nodePool {
		if n.watched {
			return fmt.Errorf("grammar: pooled node carries the watched flag")
		}
	}
	if flagged != watched {
		return fmt.Errorf("grammar: %d runs flagged watched, %d watches", flagged, watched)
	}
	return nil
}
