package grammar

import "fmt"

// Grammar is an incrementally-built context-free grammar that derives exactly
// one sequence: the stream of terminal symbols appended so far. It is the
// structure PYTHIA-RECORD maintains per thread (paper section II-A).
//
// A Grammar is not safe for concurrent use; Pythia keeps one per thread.
type Grammar struct {
	rules []*rule // rules[0] is the root; entries may be nil after deletion
	free  []int32 // recycled rule indexes

	// tab is the digram index (see digramtable.go).
	tab digramTable

	// pending holds rule indexes whose usage count may have dropped to one;
	// they are inlined (rule-utility invariant) once the current structural
	// edit completes.
	pending []int32

	// nodePool recycles unlinked nodes: appends are the hot path of
	// PYTHIA-RECORD, and reduction churns nodes constantly. A recycled node
	// is indistinguishable from a fresh one; stale digram-index entries are
	// re-validated on use.
	nodePool []*node

	// rulePool recycles deleted rules (guard node included):
	// periodic traces constantly create rules in match that drainPending
	// inlines moments later, making rule churn the dominant allocation of
	// record mode.
	rulePool []*rule

	eventCount int64 // number of terminals appended so far
	liveRules  int   // non-nil entries of rules, maintained by alloc/free
	liveNodes  int   // linked body nodes (guards excluded), maintained by newNode/recycle

	// cf counts the repetitions of a verified loop instead of reducing
	// them (see confirm.go).
	cf confirmer
}

// New returns an empty grammar ready to accept events.
func New() *Grammar {
	g := &Grammar{}
	g.rules = append(g.rules, newRule(0))
	g.liveRules = 1
	return g
}

// --- digram-index accessors -------------------------------------------------

// ixGet returns the indexed occurrence of d, or nil.
// pythia:hotpath — one lookup per append.
func (g *Grammar) ixGet(d digram) *node { return g.tab.get(d.pack()) }

// ixPut makes n the indexed occurrence of d.
// pythia:hotpath — index maintenance on every structural edit.
func (g *Grammar) ixPut(d digram, n *node) { g.tab.put(d.pack(), n) }

// ixDel removes the index entry for d.
// pythia:hotpath — index maintenance on every structural edit.
func (g *Grammar) ixDel(d digram) { g.tab.del(d.pack()) }

// root returns the root rule (always rules[0]).
func (g *Grammar) root() *rule { return g.rules[0] }

// ruleOf returns the rule referred to by non-terminal symbol s.
func (g *Grammar) ruleOf(s Sym) *rule { return g.rules[s.RuleIndex()] }

// EventCount returns the number of terminal symbols appended so far, i.e.
// the unfolded length of the root rule.
func (g *Grammar) EventCount() int64 { return g.eventCount }

// RuleCount returns the number of live rules, including the root. O(1):
// record-mode budget checks read it on every append. Inside a counted
// repetition it is the count the reduction would have reached.
// pythia:hotpath — one budget comparison per recorded event.
func (g *Grammar) RuleCount() int {
	if c := &g.cf; c.pos > 0 {
		return int(c.loop[c.pos-1].rules)
	}
	return g.liveRules
}

// NodeCount returns the number of live body nodes across all rules (guard
// nodes excluded) — with RuleCount, the grammar's memory footprint measure
// that record-mode budgets cap. O(1), and like RuleCount exact inside a
// counted repetition.
// pythia:hotpath — one budget comparison per recorded event.
func (g *Grammar) NodeCount() int {
	if c := &g.cf; c.pos > 0 {
		return int(c.loop[c.pos-1].nodes)
	}
	return g.liveNodes
}

// Append records one occurrence of the terminal event id at the end of the
// trace, restoring all grammar invariants before returning.
// pythia:hotpath — one call per recorded event.
func (g *Grammar) Append(eventID int32) { g.AppendRun(eventID, 1) }

// AppendRun records count consecutive occurrences of the terminal event id.
// pythia:hotpath — one call per recorded event (or run of events).
func (g *Grammar) AppendRun(eventID int32, count uint32) {
	if count == 0 {
		return
	}
	if g.cf.arm != nil {
		if count == 1 && g.confirmNext(eventID) {
			return
		}
		g.diverge()
	}
	g.reduce(eventID, count)
}

// reduce is the reduction proper: it appends eventID^count to the root and
// restores every invariant, then lets the confirmer look at the result.
// pythia:hotpath — one call per event the confirmer does not count.
func (g *Grammar) reduce(eventID int32, count uint32) {
	g.eventCount += int64(count)
	g.appendSym(Terminal(eventID), count)
	g.drainPending()
	if !g.cf.off {
		g.watchRoot(count)
	}
}

// appendSym appends the run s^c to the root body, enforcing run merging and
// digram uniqueness.
// pythia:hotpath — the append fast path; run-merge hits stay allocation-free.
func (g *Grammar) appendSym(s Sym, c uint32) {
	root := g.root()
	last := root.last()
	if last != nil && last.sym == s {
		last.count += c
		g.noteCountDelta(last, int64(c))
		return
	}
	n := g.newNode(s, c)
	root.insertAfter(root.guard.prev, n)
	g.noteNewNode(n)
	if last != nil {
		g.check(last)
	}
}

// newNode allocates or recycles a body node.
// pythia:hotpath — node churn is pooled, not allocated per event.
func (g *Grammar) newNode(s Sym, c uint32) *node {
	g.liveNodes++
	if n := len(g.nodePool); n > 0 {
		nd := g.nodePool[n-1]
		g.nodePool = g.nodePool[:n-1]
		nd.sym, nd.count = s, c
		return nd
	}
	return &node{sym: s, count: c}
}

// recycle returns an unlinked node to the pool.
// pythia:hotpath — the pool append is capacity-bounded.
func (g *Grammar) recycle(n *node) {
	g.liveNodes--
	if n.watched {
		g.cf.unwatch(n)
	}
	if len(g.nodePool) < 1024 {
		g.nodePool = append(g.nodePool, n)
	}
}

// --- usage accounting -------------------------------------------------------

// noteNewNode registers a freshly linked node in the usage accounting.
func (g *Grammar) noteNewNode(n *node) {
	if n.sym.IsTerminal() {
		return
	}
	r := g.ruleOf(n.sym)
	r.uses += int64(n.count)
	r.linkUser(n)
}

// noteCountDelta adjusts usage accounting after n.count changed by delta.
func (g *Grammar) noteCountDelta(n *node, delta int64) {
	if n.sym.IsTerminal() {
		return
	}
	r := g.ruleOf(n.sym)
	r.uses += delta
	if r.uses <= 1 {
		g.maybeDying(r)
	}
}

// noteRemoveNode unregisters a node that is about to be unlinked.
func (g *Grammar) noteRemoveNode(n *node) {
	if n.sym.IsTerminal() {
		return
	}
	r := g.ruleOf(n.sym)
	r.uses -= int64(n.count)
	r.unlinkUser(n)
	if r.uses <= 1 {
		g.maybeDying(r)
	}
}

// maybeDying schedules a rule for the utility check in drainPending.
func (g *Grammar) maybeDying(r *rule) {
	if r.idx == 0 {
		return
	}
	g.pending = append(g.pending, r.idx)
}

// --- digram index -----------------------------------------------------------

// unindex removes the index entry for the digram starting at left, if the
// entry points at left.
// pythia:hotpath — digram-index maintenance on every structural edit.
func (g *Grammar) unindex(left *node) {
	if left == nil || left.guard || !left.alive() {
		return
	}
	right := left.next
	if right == nil || right.guard {
		return
	}
	d := digram{left.sym, right.sym}
	if g.ixGet(d) == left {
		g.ixDel(d)
	}
}

// check enforces the digram-uniqueness invariant for the pair starting at
// left. It either claims the index slot or triggers a match with the
// existing occurrence.
// pythia:hotpath — digram-uniqueness enforcement on every append.
func (g *Grammar) check(left *node) {
	if left == nil || left.guard || !left.alive() {
		return
	}
	right := left.next
	if right == nil || right.guard {
		return
	}
	if left.sym == right.sym {
		// Defensive: adjacent equal runs are merged on sight.
		g.mergeInto(left, right)
		g.check(left)
		return
	}
	d := digram{left.sym, right.sym}
	m := g.ixGet(d)
	if m != nil && m != left && m.alive() && m.sym == left.sym &&
		m.next != nil && !m.next.guard && m.next.sym == right.sym {
		g.match(left, m)
		return
	}
	if m != left {
		g.ixPut(d, left)
	}
}

// mergeInto folds the run right into the adjacent run left (equal symbols),
// fixing the index entry for the pair that started at right.
func (g *Grammar) mergeInto(left, right *node) {
	if nn := right.next; nn != nil && !nn.guard {
		key := digram{right.sym, nn.sym}
		if g.ixGet(key) == right {
			g.ixPut(key, left)
		}
	}
	c := right.count
	g.noteRemoveNode(right)
	right.unlink()
	g.recycle(right)
	left.count += c
	g.noteCountDelta(left, int64(c))
}

// --- digram matching --------------------------------------------------------

// match handles a duplicated digram: the pair starting at l duplicates the
// indexed pair starting at m. Following the paper's algorithm, either an
// existing rule whose body is exactly the shared pair is reused, or a new
// rule is created and both occurrences are rewritten to use it.
func (g *Grammar) match(l, m *node) {
	r := l.next
	m2 := m.next
	if l.watched || r.watched || m.watched || m2.watched {
		// The counts read below make this edit depend on a watched run's
		// exponent; the confirmer must not count repetitions that do this.
		g.cf.touch(l, r, m, m2)
	}
	a := minU32(l.count, m.count)
	b := minU32(r.count, m2.count)

	mr := m.rule
	lr := l.rule
	var R *rule
	if mr.idx != 0 && m.prev.guard && m2.next.guard && m.count == a && m2.count == b {
		// The existing occurrence is the entire body of mr: reuse it.
		R = mr
	} else if lr.idx != 0 && l.prev.guard && r.next.guard && l.count == a && r.count == b {
		// The new occurrence is the entire body of lr: reuse it the other
		// way around — rewrite the indexed occurrence to reference lr and
		// make lr's body the canonical location of the digram.
		R = lr
		g.ixPut(digram{l.sym, r.sym}, l)
		g.substitute(m, m2, a, b, R)
		g.maybeDying(R)
		return
	} else {
		R = g.allocRule()
		n1 := g.newNode(l.sym, a)
		R.insertAfter(R.guard, n1)
		g.noteNewNode(n1)
		n2 := g.newNode(r.sym, b)
		R.insertAfter(n1, n2)
		g.noteNewNode(n2)
		// The canonical location of this digram is now inside R.
		g.ixPut(digram{l.sym, r.sym}, n1)
		g.substitute(m, m2, a, b, R)
	}
	// The first substitution may have cascaded into the region around l;
	// re-validate before rewriting the second occurrence.
	if !l.alive() || !r.alive() || l.next != r || l.count < a || r.count < b {
		g.maybeDying(R)
		if l.alive() {
			g.check(l)
		}
		return
	}
	g.substitute(l, r, a, b, R)
	g.maybeDying(R)
}

// substitute replaces the sub-run x^a y^b (x and y adjacent, a <= x.count,
// b <= y.count) by one occurrence of rule R, leaving run remainders in
// place: x^n y^m becomes x^(n-a) R y^(m-b).
func (g *Grammar) substitute(x, y *node, a, b uint32, R *rule) {
	T := x.rule
	p := x.prev
	xGone := x.count == a
	yGone := y.count == b

	// Retire index entries that stop being valid.
	g.unindex(x) // (x, y)
	if xGone {
		g.unindex(p) // (p, x)
	}
	if yGone {
		g.unindex(y) // (y, q)
	}

	if xGone {
		g.noteRemoveNode(x)
		x.unlink()
		g.recycle(x)
	} else {
		x.count -= a
		g.noteCountDelta(x, -int64(a))
	}
	if yGone {
		g.noteRemoveNode(y)
		y.unlink()
		g.recycle(y)
	} else {
		y.count -= b
		g.noteCountDelta(y, -int64(b))
	}

	anchor := p
	if !xGone {
		anchor = x
	}
	var rnode *node
	if !anchor.guard && anchor.sym == R.sym() {
		anchor.count++
		g.noteCountDelta(anchor, 1)
		rnode = anchor
	} else {
		rnode = g.newNode(R.sym(), 1)
		T.insertAfter(anchor, rnode)
		g.noteNewNode(rnode)
	}
	if nxt := rnode.next; !nxt.guard && nxt.sym == rnode.sym {
		g.mergeInto(rnode, nxt)
	}

	g.check(rnode.prev)
	g.check(rnode)
}

// --- rule utility -----------------------------------------------------------

// drainPending inlines rules whose total usage dropped to one (or collects
// rules that became entirely unused), restoring the rule-utility invariant.
func (g *Grammar) drainPending() {
	for len(g.pending) > 0 {
		idx := g.pending[len(g.pending)-1]
		g.pending = g.pending[:len(g.pending)-1]
		r := g.rules[idx]
		if r == nil || idx == 0 || r.uses > 1 {
			continue
		}
		if r.uses <= 0 {
			g.deleteUnused(r)
			continue
		}
		g.inline(r)
	}
}

// inline expands the single remaining use of rule r in place and deletes r.
func (g *Grammar) inline(r *rule) {
	// uses == 1: the list holds exactly one node, of run count one.
	u := r.users
	if u == nil || !u.alive() {
		return
	}
	if u.count != 1 {
		panic(fmt.Sprintf("pythia: internal: grammar: inline of R%d with run count %d", r.idx, u.count))
	}
	T := u.rule
	p := u.prev
	q := u.next
	first := r.first()
	last := r.last()
	if first == nil {
		panic(fmt.Sprintf("pythia: internal: grammar: inline of empty rule R%d", r.idx))
	}

	g.unindex(p) // (p, u)
	g.unindex(u) // (u, q)
	g.noteRemoveNode(u)
	u.unlink()
	g.recycle(u)

	// Splice the rule body between p and q. Digram index entries that point
	// at interior body nodes remain valid: the nodes move wholesale.
	for bn := first; ; bn = bn.next {
		bn.rule = T
		if bn == last {
			break
		}
	}
	p.next = first
	first.prev = p
	last.next = q
	q.prev = last
	g.freeRule(r)

	// Boundary merges, then boundary digram checks.
	if !p.guard && p.sym == first.sym {
		g.mergeInto(p, first)
	}
	lastNew := q.prev
	if !q.guard && !lastNew.guard && lastNew.sym == q.sym {
		g.mergeInto(lastNew, q)
	}
	g.check(p)
	if qp := q.prev; qp != nil && q.alive() {
		g.check(qp)
	} else if !q.alive() {
		// q was merged away; the surviving node is lastNew.
		g.check(lastNew)
	}
}

// deleteUnused removes a rule that lost all its references, releasing the
// references its own body holds.
func (g *Grammar) deleteUnused(r *rule) {
	for bn := r.first(); bn != nil && !bn.guard; {
		next := bn.next
		g.unindex(bn)
		g.noteRemoveNode(bn)
		bn.unlink()
		g.recycle(bn)
		bn = next
	}
	g.freeRule(r)
}

// --- rule allocation --------------------------------------------------------

// allocRule returns a fresh or recycled empty rule under a fresh index.
// pythia:hotpath — rule churn is pooled, not allocated per reduction.
func (g *Grammar) allocRule() *rule {
	var idx int32
	if n := len(g.free); n > 0 {
		idx = g.free[n-1]
		g.free = g.free[:n-1]
	} else {
		idx = int32(len(g.rules))
		// pythia:allow hotpath-alloc — g.rules grows only when a new rule
		// index is minted: bounded by the peak live rule count, not by events.
		g.rules = append(g.rules, nil)
	}
	var r *rule
	if n := len(g.rulePool); n > 0 {
		r = g.rulePool[n-1]
		g.rulePool = g.rulePool[:n-1]
		r.idx = idx
	} else {
		r = newRule(idx)
	}
	g.rules[idx] = r
	g.liveRules++
	return r
}

// freeRule retires a deleted rule, returning it to the pool. The caller has
// already emptied the body (or spliced it elsewhere) and removed every
// referencing run (the user list is empty), so only the bookkeeping needs
// resetting.
// pythia:hotpath — the pool append is capacity-bounded.
func (g *Grammar) freeRule(r *rule) {
	g.rules[r.idx] = nil
	g.liveRules--
	// pythia:allow hotpath-alloc — g.free never holds more indexes than
	// g.rules has minted, so it is bounded by the peak live rule count.
	g.free = append(g.free, r.idx)
	if len(g.rulePool) >= 256 {
		return
	}
	r.uses = 0
	r.guard.prev, r.guard.next = r.guard, r.guard
	g.rulePool = append(g.rulePool, r) // pythia:allow hotpath-alloc — capped at 256 above
}

func minU32(a, b uint32) uint32 {
	if a < b {
		return a
	}
	return b
}
