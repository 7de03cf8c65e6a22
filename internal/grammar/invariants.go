package grammar

import "fmt"

// CheckInvariants verifies the structural invariants of the grammar and
// returns the first violation found, or nil. It is O(size of grammar) and is
// meant for tests and debugging, not for the hot path.
//
// Checked invariants:
//  1. rule utility — every non-root rule is referenced at least twice
//     (counting run exponents), the recorded usage counters match a recount
//     from scratch, and each rule's user list holds exactly the live runs
//     that reference it, once each, with symmetric links;
//  2. digram uniqueness — every ordered pair of adjacent symbols appears at
//     most once across all rule bodies, and the digram index maps each pair
//     to its single occurrence;
//  3. run merging — no two adjacent runs carry the same symbol, and every
//     run has a positive count;
//  4. structure — rule bodies are consistently linked, non-root bodies have
//     at least two runs, all referenced rules exist, and the grammar is
//     acyclic;
//  5. confirmer — every watched run is a live root run, and no other node
//     carries the watched flag.
//
// Like every structure reader, it first reduces the events of a counted
// repetition that is under way (see confirm.go).
func (g *Grammar) CheckInvariants() error { return g.checkInvariants(false) }

// CheckInvariantsStrict runs CheckInvariants plus the strict digram-index
// sweep: every entry of the index must point at a live node that still forms
// exactly the digram it is keyed under. The engine tolerates stale entries
// (check() revalidates before trusting a hit, see grammar.go), so a stale
// entry is latent garbage rather than a correctness bug — but it is retained
// memory and a sign that an edit path forgot to unindex. Tests and the fuzz
// target use the strict form; CheckInvariants keeps the tolerant behaviour
// for debugging half-edited grammars.
func (g *Grammar) CheckInvariantsStrict() error { return g.checkInvariants(true) }

func (g *Grammar) checkInvariants(strict bool) error {
	g.settle()
	if len(g.rules) == 0 || g.rules[0] == nil {
		return fmt.Errorf("grammar: missing root rule")
	}

	uses := make(map[int32]int64)
	users := make(map[int32]int) // referencing body nodes per rule, recounted
	seen := make(map[digram]*node)

	for idx, r := range g.rules {
		if r == nil {
			continue
		}
		if int(r.idx) != idx {
			return fmt.Errorf("grammar: rule at slot %d has idx %d", idx, r.idx)
		}
		bodyLen := 0
		for n := r.first(); n != nil && !n.guard; n = n.next {
			bodyLen++
			if n.rule != r {
				return fmt.Errorf("grammar: node in R%d has rule pointer to %v", r.idx, n.rule)
			}
			if n.count == 0 {
				return fmt.Errorf("grammar: zero-count run %v in R%d", n.sym, r.idx)
			}
			if n.next.prev != n || n.prev.next != n {
				return fmt.Errorf("grammar: broken links around %v in R%d", n.sym, r.idx)
			}
			if !n.sym.IsTerminal() {
				ref := n.sym.RuleIndex()
				if int(ref) >= len(g.rules) || g.rules[ref] == nil {
					return fmt.Errorf("grammar: R%d references deleted rule R%d", r.idx, ref)
				}
				uses[ref] += int64(n.count)
				users[ref]++
			} else if n.userPrev != nil || n.userNext != nil {
				return fmt.Errorf("grammar: terminal run %v in R%d carries user links", n.sym, r.idx)
			}
			if !n.next.guard {
				if n.sym == n.next.sym {
					return fmt.Errorf("grammar: adjacent equal runs %v in R%d", n.sym, r.idx)
				}
				d := digram{n.sym, n.next.sym}
				if prev, dup := seen[d]; dup {
					return fmt.Errorf("grammar: digram (%v,%v) appears in R%d and R%d",
						d.a, d.b, prev.rule.idx, r.idx)
				}
				seen[d] = n
				got := g.ixGet(d)
				if got == nil {
					return fmt.Errorf("grammar: digram (%v,%v) in R%d missing from index", d.a, d.b, r.idx)
				}
				if got != n {
					return fmt.Errorf("grammar: index for digram (%v,%v) points elsewhere", d.a, d.b)
				}
			}
		}
		if idx != 0 && bodyLen < 2 {
			return fmt.Errorf("grammar: non-root rule R%d has %d runs", r.idx, bodyLen)
		}
	}

	for idx, r := range g.rules {
		if r == nil || idx == 0 {
			continue
		}
		if uses[int32(idx)] != r.uses {
			return fmt.Errorf("grammar: R%d recorded uses %d, recount %d", idx, r.uses, uses[int32(idx)])
		}
		if r.uses < 2 {
			return fmt.Errorf("grammar: rule utility violated for R%d (uses=%d)", idx, r.uses)
		}
		// Every listed node is a live run of this rule's symbol; symmetric
		// links mean the walk visits no node twice (and so ends), so a
		// length equal to the recount means every referencing body node is
		// listed exactly once.
		listed := 0
		var prev *node
		for n := r.users; n != nil; prev, n = n, n.userNext {
			if n.userPrev != prev {
				return fmt.Errorf("grammar: asymmetric user links in the list of R%d", idx)
			}
			if !n.alive() || n.sym != r.sym() {
				return fmt.Errorf("grammar: stale user node registered for R%d", idx)
			}
			listed++
		}
		if listed != users[int32(idx)] {
			return fmt.Errorf("grammar: R%d lists %d users, recount %d", idx, listed, users[int32(idx)])
		}
	}
	if g.root().users != nil {
		return fmt.Errorf("grammar: root rule has a user list")
	}
	for _, n := range g.nodePool {
		if n.userPrev != nil || n.userNext != nil {
			return fmt.Errorf("grammar: pooled node carries user links")
		}
	}
	for _, r := range g.rulePool {
		if r.users != nil {
			return fmt.Errorf("grammar: pooled rule has a user list")
		}
	}

	// Stale index entries (entries whose node is dead or no longer forms the
	// digram) are tolerated by the engine: check() revalidates each hit
	// before trusting it, and live digrams were fully cross-checked above.
	// Strict mode flags them anyway — a stale entry is retained memory and
	// means some edit path forgot to unindex.
	if strict {
		var staleErr error
		g.tab.forEach(func(d digram, n *node) {
			if staleErr != nil {
				return
			}
			switch {
			case n == nil || !n.alive():
				staleErr = fmt.Errorf("grammar: stale index entry (%v,%v): node is dead", d.a, d.b)
			case n.sym != d.a:
				staleErr = fmt.Errorf("grammar: stale index entry (%v,%v): node holds %v", d.a, d.b, n.sym)
			case n.next == nil || n.next.guard || n.next.sym != d.b:
				staleErr = fmt.Errorf("grammar: stale index entry (%v,%v): successor no longer %v", d.a, d.b, d.b)
			case seen[d] != n:
				staleErr = fmt.Errorf("grammar: index entry (%v,%v) points at an unreachable duplicate", d.a, d.b)
			}
		})
		if staleErr != nil {
			return staleErr
		}
	}

	if err := g.checkAcyclic(); err != nil {
		return err
	}
	if n := g.ExpandedLength(0); n != g.eventCount {
		return fmt.Errorf("grammar: root expands to %d terminals, recorded %d", n, g.eventCount)
	}

	// The O(1) budget counters must agree with a full recount — record-mode
	// resource budgets rely on them.
	rules, nodes := 0, 0
	for _, r := range g.rules {
		if r == nil {
			continue
		}
		rules++
		nodes += r.bodyLen()
	}
	if rules != g.liveRules {
		return fmt.Errorf("grammar: liveRules counter %d, recount %d", g.liveRules, rules)
	}
	if nodes != g.liveNodes {
		return fmt.Errorf("grammar: liveNodes counter %d, recount %d", g.liveNodes, nodes)
	}
	return g.checkWatches()
}

func (g *Grammar) checkAcyclic() error {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make(map[int32]int)
	var visit func(idx int32) error
	visit = func(idx int32) error {
		switch color[idx] {
		case grey:
			return fmt.Errorf("grammar: cycle through R%d", idx)
		case black:
			return nil
		}
		color[idx] = grey
		r := g.rules[idx]
		for n := r.first(); n != nil && !n.guard; n = n.next {
			if !n.sym.IsTerminal() {
				if err := visit(n.sym.RuleIndex()); err != nil {
					return err
				}
			}
		}
		color[idx] = black
		return nil
	}
	return visit(0)
}
