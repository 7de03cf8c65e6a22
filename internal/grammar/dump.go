package grammar

import (
	"fmt"
	"sort"
	"strings"
)

// NameFunc maps a terminal event id to a display name. When nil, terminals
// render as "t<id>".
type NameFunc func(eventID int32) string

// Dump renders the grammar in the paper's notation, one rule per line:
//
//	R0 -> Bcast^6 R2 Barrier R1^200 Allreduce ...
//	R1 -> R2 Isend Irecv Wait^2
//
// The root rule is always first; the remaining rules follow in index order.
func (g *Grammar) Dump(name NameFunc) string {
	g.settle()
	var b strings.Builder
	idxs := make([]int, 0, len(g.rules))
	for i, r := range g.rules {
		if r != nil {
			idxs = append(idxs, i)
		}
	}
	sort.Ints(idxs)
	for _, i := range idxs {
		b.WriteString(g.dumpRule(g.rules[i], name))
		b.WriteByte('\n')
	}
	return b.String()
}

func (g *Grammar) dumpRule(r *rule, name NameFunc) string {
	var b strings.Builder
	fmt.Fprintf(&b, "R%d ->", r.idx)
	for n := r.first(); n != nil && !n.guard; n = n.next {
		b.WriteByte(' ')
		if n.sym.IsTerminal() {
			if name != nil {
				b.WriteString(name(n.sym.Event()))
			} else {
				fmt.Fprintf(&b, "t%d", n.sym.Event())
			}
		} else {
			fmt.Fprintf(&b, "R%d", n.sym.RuleIndex())
		}
		if n.count > 1 {
			fmt.Fprintf(&b, "^%d", n.count)
		}
	}
	return b.String()
}
