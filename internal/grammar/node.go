package grammar

// node is one run in a rule body: a symbol and its number of consecutive
// repetitions. Rule bodies are circular doubly-linked lists threaded through
// a sentinel (guard) node so that insertion and removal are O(1).
type node struct {
	sym   Sym
	count uint32
	prev  *node
	next  *node
	rule  *rule // owning rule; nil once the node is unlinked (dead)
	guard bool  // sentinel marker
	// watched marks a root run the confirmer follows (confirm.go); match
	// and recycle test it instead of searching the watch list.
	watched bool

	// userPrev/userNext thread a run whose symbol is a non-terminal through
	// the user list of the rule it refers to (rule.users); nil on terminal
	// runs, guards and pooled nodes.
	userPrev *node
	userNext *node
}

// alive reports whether the node is still linked into a rule body.
func (n *node) alive() bool { return n.rule != nil }

// rule is one production of the grammar. Its body is the list of runs
// between guard.next and guard.prev. uses is the total number of times the
// rule is referenced, counting run exponents (a run N^3 contributes 3).
type rule struct {
	idx   int32
	guard *node
	uses  int64
	// users heads the list of live nodes whose symbol refers to this rule,
	// most recently linked first, threaded through node.userPrev/userNext.
	// Membership is all the engine needs — inline reads the list only when
	// uses == 1, when it holds exactly one node — so link and unlink are a
	// few pointer writes where a set would hash.
	users *node
	// sentinel is the storage guard points at: one allocation per rule.
	sentinel node
}

func newRule(idx int32) *rule {
	r := &rule{idx: idx}
	g := &r.sentinel
	g.guard = true
	g.prev, g.next = g, g
	g.rule = r
	r.guard = g
	return r
}

// linkUser puts n, a freshly linked run of r's symbol, on r's user list.
// pythia:hotpath — once per non-terminal run created.
func (r *rule) linkUser(n *node) {
	n.userNext = r.users
	if r.users != nil {
		r.users.userPrev = n
	}
	r.users = n
}

// unlinkUser takes n off r's user list.
// pythia:hotpath — once per non-terminal run removed.
func (r *rule) unlinkUser(n *node) {
	if n.userPrev != nil {
		n.userPrev.userNext = n.userNext
	} else {
		r.users = n.userNext
	}
	if n.userNext != nil {
		n.userNext.userPrev = n.userPrev
	}
	n.userPrev, n.userNext = nil, nil
}

// sym returns the non-terminal symbol referring to this rule.
func (r *rule) sym() Sym { return nonTerminal(r.idx) }

// first returns the first run of the body, or nil if the body is empty.
func (r *rule) first() *node {
	if r.guard.next == r.guard {
		return nil
	}
	return r.guard.next
}

// last returns the last run of the body, or nil if the body is empty.
func (r *rule) last() *node {
	if r.guard.prev == r.guard {
		return nil
	}
	return r.guard.prev
}

// bodyLen returns the number of runs in the body.
func (r *rule) bodyLen() int {
	n := 0
	for p := r.guard.next; !p.guard; p = p.next {
		n++
	}
	return n
}

// insertAfter links n immediately after pos (pos may be the guard, in which
// case n becomes the first run). n must be fresh or unlinked.
func (r *rule) insertAfter(pos, n *node) {
	n.rule = r
	n.prev = pos
	n.next = pos.next
	pos.next.prev = n
	pos.next = n
}

// unlink removes n from its rule body and marks it dead. It does not touch
// the digram index or usage accounting; callers handle those.
func (n *node) unlink() {
	n.prev.next = n.next
	n.next.prev = n.prev
	n.rule = nil
	n.prev, n.next = nil, nil
}
