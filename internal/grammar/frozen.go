package grammar

import (
	"fmt"
	"sort"
	"strings"
)

// Run is one element of a frozen rule body: a symbol and its number of
// consecutive repetitions.
type Run struct {
	Sym   Sym
	Count uint32
}

// UserRef locates a run inside a frozen grammar: body position Pos of rule
// Rule.
type UserRef struct {
	Rule int32
	Pos  int32
}

// FrozenRule is one production of a frozen grammar.
type FrozenRule struct {
	// Body is the ordered list of runs of the production.
	Body []Run
	// Users lists every run (in any rule) whose symbol references this rule,
	// in deterministic (rule, position) order. Empty for the root.
	Users []UserRef
	// Occ is the number of times one expansion of this rule occurs in the
	// unfolded trace (1 for the root).
	Occ int64
	// Len is the number of terminals one expansion of this rule unfolds to.
	Len int64
}

// Frozen is an immutable, densely indexed snapshot of a Grammar. It is the
// form PYTHIA-PREDICT navigates and the trace file stores. Rule 0 is always
// the root.
type Frozen struct {
	Rules []FrozenRule
	// EventCount is the unfolded length of the trace.
	EventCount int64
	// TermSites maps each terminal event id to every run where it occurs,
	// in deterministic order. This is the entry point for re-anchoring a
	// lost progress sequence (paper section II-B2).
	TermSites map[int32][]UserRef
}

// Freeze compacts the live rules of g into a Frozen snapshot. The grammar
// may continue to evolve afterwards; the snapshot is unaffected.
func (g *Grammar) Freeze() *Frozen {
	g.settle()
	// Dense re-indexing of live rules, root first, ascending old index.
	remap := make(map[int32]int32, len(g.rules))
	var live []*rule
	for _, r := range g.rules {
		if r != nil {
			remap[r.idx] = int32(len(live))
			live = append(live, r)
		}
	}

	f := &Frozen{
		Rules:      make([]FrozenRule, len(live)),
		EventCount: g.eventCount,
		TermSites:  make(map[int32][]UserRef),
	}
	for newIdx, r := range live {
		var body []Run
		for n := r.first(); n != nil && !n.guard; n = n.next {
			s := n.sym
			if !s.IsTerminal() {
				s = nonTerminal(remap[s.RuleIndex()])
			}
			body = append(body, Run{Sym: s, Count: n.count})
		}
		f.Rules[newIdx].Body = body
	}
	f.buildDerived()
	return f
}

// buildDerived computes Users, TermSites, Len and Occ from rule bodies. It
// is also used after deserialisation, which only transports the bodies.
func (f *Frozen) buildDerived() {
	if f.TermSites == nil {
		f.TermSites = make(map[int32][]UserRef)
	}
	for i := range f.Rules {
		f.Rules[i].Users = nil
		f.Rules[i].Occ = 0
		f.Rules[i].Len = 0
	}
	for ri := range f.Rules {
		for pi, run := range f.Rules[ri].Body {
			ref := UserRef{Rule: int32(ri), Pos: int32(pi)}
			if run.Sym.IsTerminal() {
				id := run.Sym.Event()
				f.TermSites[id] = append(f.TermSites[id], ref)
			} else {
				tgt := run.Sym.RuleIndex()
				f.Rules[tgt].Users = append(f.Rules[tgt].Users, ref)
			}
		}
	}

	// Topological order (users before used) by reverse post-order DFS from
	// the root; the grammar is acyclic by construction.
	order := make([]int32, 0, len(f.Rules))
	state := make([]int8, len(f.Rules))
	var visit func(idx int32)
	visit = func(idx int32) {
		if state[idx] != 0 {
			return
		}
		state[idx] = 1
		for _, run := range f.Rules[idx].Body {
			if !run.Sym.IsTerminal() {
				visit(run.Sym.RuleIndex())
			}
		}
		order = append(order, idx)
	}
	visit(0)

	// Len in post-order (used before users).
	for _, idx := range order {
		var total int64
		for _, run := range f.Rules[idx].Body {
			if run.Sym.IsTerminal() {
				total += int64(run.Count)
			} else {
				total += int64(run.Count) * f.Rules[run.Sym.RuleIndex()].Len
			}
		}
		f.Rules[idx].Len = total
	}

	// Occ in reverse post-order (users before used).
	f.Rules[0].Occ = 1
	for i := len(order) - 1; i >= 0; i-- {
		idx := order[i]
		occ := f.Rules[idx].Occ
		for _, run := range f.Rules[idx].Body {
			if !run.Sym.IsTerminal() {
				f.Rules[run.Sym.RuleIndex()].Occ += occ * int64(run.Count)
			}
		}
	}
}

// RunAt returns the run at ref.
func (f *Frozen) RunAt(ref UserRef) Run { return f.Rules[ref.Rule].Body[ref.Pos] }

// SymLen returns the number of terminals one instance of sym unfolds to.
func (f *Frozen) SymLen(sym Sym) int64 {
	if sym.IsTerminal() {
		return 1
	}
	return f.Rules[sym.RuleIndex()].Len
}

// TerminalIDs returns the sorted set of terminal event ids occurring in the
// grammar.
func (f *Frozen) TerminalIDs() []int32 {
	ids := make([]int32, 0, len(f.TermSites))
	for id := range f.TermSites {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Validate checks structural well-formedness of a frozen grammar (typically
// after deserialisation): rule references in range, positive run counts,
// non-empty bodies for referenced rules, acyclicity.
func (f *Frozen) Validate() error {
	if len(f.Rules) == 0 {
		return fmt.Errorf("frozen grammar: no rules")
	}
	for ri, r := range f.Rules {
		for pi, run := range r.Body {
			if run.Count == 0 {
				return fmt.Errorf("frozen grammar: zero count at R%d[%d]", ri, pi)
			}
			if !run.Sym.IsTerminal() {
				tgt := run.Sym.RuleIndex()
				if tgt < 0 || int(tgt) >= len(f.Rules) {
					return fmt.Errorf("frozen grammar: R%d[%d] references R%d out of range", ri, pi, tgt)
				}
				if tgt == int32(ri) {
					return fmt.Errorf("frozen grammar: R%d references itself", ri)
				}
			}
		}
	}
	state := make([]int8, len(f.Rules))
	var visit func(idx int32) error
	visit = func(idx int32) error {
		switch state[idx] {
		case 1:
			return fmt.Errorf("frozen grammar: cycle through R%d", idx)
		case 2:
			return nil
		}
		state[idx] = 1
		for _, run := range f.Rules[idx].Body {
			if !run.Sym.IsTerminal() {
				if err := visit(run.Sym.RuleIndex()); err != nil {
					return err
				}
			}
		}
		state[idx] = 2
		return nil
	}
	return visit(0)
}

// Unfold reconstructs the full terminal sequence. Intended for tests and the
// timing replay.
func (f *Frozen) Unfold() []int32 {
	out := make([]int32, 0, f.EventCount)
	var expand func(idx int32)
	expand = func(idx int32) {
		for _, run := range f.Rules[idx].Body {
			for i := uint32(0); i < run.Count; i++ {
				if run.Sym.IsTerminal() {
					out = append(out, run.Sym.Event())
				} else {
					expand(run.Sym.RuleIndex())
				}
			}
		}
	}
	expand(0)
	return out
}

// Dump renders the frozen grammar in the paper's notation (see Grammar.Dump).
func (f *Frozen) Dump(name NameFunc) string {
	var b strings.Builder
	for ri, r := range f.Rules {
		fmt.Fprintf(&b, "R%d ->", ri)
		for _, run := range r.Body {
			b.WriteByte(' ')
			if run.Sym.IsTerminal() {
				if name != nil {
					b.WriteString(name(run.Sym.Event()))
				} else {
					fmt.Fprintf(&b, "t%d", run.Sym.Event())
				}
			} else {
				fmt.Fprintf(&b, "R%d", run.Sym.RuleIndex())
			}
			if run.Count > 1 {
				fmt.Fprintf(&b, "^%d", run.Count)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// NonTerminal exposes construction of non-terminal symbols for packages that
// assemble Frozen grammars directly (deserialisation, tests).
func NonTerminal(ruleIdx int32) Sym { return nonTerminal(ruleIdx) }

// NewFrozen assembles a frozen grammar from raw rule bodies (rule 0 is the
// root), validates it, and computes all derived data (usage sites, terminal
// sites, occurrence counts, expansion lengths). It is the entry point for
// deserialisation.
func NewFrozen(bodies [][]Run) (*Frozen, error) {
	f := &Frozen{Rules: make([]FrozenRule, len(bodies))}
	for i, b := range bodies {
		f.Rules[i].Body = b
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	f.buildDerived()
	f.EventCount = 0
	if len(f.Rules) > 0 {
		f.EventCount = f.Rules[0].Len
	}
	return f, nil
}
