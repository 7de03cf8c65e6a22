package grammar

// Unfold reconstructs the complete sequence of terminal event ids represented
// by the grammar (paper Fig. 1). It is intended for tests, inspection, and
// the end-of-record timing replay; the prediction engine never materialises
// the full trace.
func (g *Grammar) Unfold() []int32 {
	out := make([]int32, 0, g.eventCount)
	g.Walk(func(eventID int32) bool {
		out = append(out, eventID)
		return true
	})
	return out
}

// Walk calls fn for every terminal of the unfolded trace in order, stopping
// early if fn returns false.
func (g *Grammar) Walk(fn func(eventID int32) bool) {
	g.settle()
	g.walkRule(g.root(), fn)
}

func (g *Grammar) walkRule(r *rule, fn func(int32) bool) bool {
	for n := r.first(); n != nil && !n.guard; n = n.next {
		for i := uint32(0); i < n.count; i++ {
			if n.sym.IsTerminal() {
				if !fn(n.sym.Event()) {
					return false
				}
			} else {
				if !g.walkRule(g.ruleOf(n.sym), fn) {
					return false
				}
			}
		}
		if n == r.guard.prev {
			break
		}
	}
	return true
}

// ExpandedLength returns the number of terminals one expansion of rule idx
// unfolds to. ExpandedLength(0) equals EventCount().
func (g *Grammar) ExpandedLength(idx int32) int64 {
	g.settle()
	memo := make(map[int32]int64)
	return g.expandedLength(idx, memo)
}

func (g *Grammar) expandedLength(idx int32, memo map[int32]int64) int64 {
	if v, ok := memo[idx]; ok {
		return v
	}
	r := g.rules[idx]
	if r == nil {
		return 0
	}
	var total int64
	for n := r.first(); n != nil && !n.guard; n = n.next {
		if n.sym.IsTerminal() {
			total += int64(n.count)
		} else {
			total += int64(n.count) * g.expandedLength(n.sym.RuleIndex(), memo)
		}
		if n == r.guard.prev {
			break
		}
	}
	memo[idx] = total
	return total
}
