package progress

import "repro/internal/grammar"

// AdvanceResult is the outcome of a branch-free advance (Frontier.AdvanceLone).
type AdvanceResult int

const (
	// AdvanceOK: the position moved to its unique next terminal.
	AdvanceOK AdvanceResult = iota
	// AdvanceEnd: the walk reached the end of the reference trace (an
	// anchored position with no successor).
	AdvanceEnd
	// AdvanceBranch: the advance is not branch-free — more than one
	// successor is possible (a partial hypothesis leaving its known
	// context, or a repeated unknown parent run) — or the walk cannot
	// continue in place. The caller must fall back to Frontier.Step.
	AdvanceBranch
)

// advanceFrames advances the stack by one terminal in place, following the
// same transitions as Successors/climb/extendUp restricted to their
// branch-free cases. The stack may be truncated, rewritten and re-extended;
// on a non-OK result its content is unspecified (the caller keeps a copy).
// pythia:hotpath — the in-place mirror of the Successors advance.
func advanceFrames(f *grammar.Frozen, stack []Frame) ([]Frame, AdvanceResult) {
	last := len(stack) - 1
	run := f.RunAt(stack[last].Ref)
	if stack[last].Iter+1 < run.Count {
		// Next repetition of the same terminal run.
		stack[last].Iter++
		return stack, AdvanceOK
	}
	// The run finished its last repetition: climb (cf. progress.climb).
	for {
		last = len(stack) - 1
		top := stack[last]
		body := f.Rules[top.Ref.Rule].Body
		if int(top.Ref.Pos)+1 < len(body) {
			// Move to the next run of the same body.
			stack[last] = Frame{Ref: grammar.UserRef{Rule: top.Ref.Rule, Pos: top.Ref.Pos + 1}}
			return descendFrames(f, stack)
		}
		if last > 0 {
			// Finished the last run of this rule body: one expansion of
			// the parent run completed.
			parent := stack[last-1]
			prun := f.RunAt(parent.Ref)
			if parent.Iter+1 < prun.Count {
				// Re-enter the same rule for the next repetition.
				stack = stack[:last]
				stack[last-1].Iter++
				child := prun.Sym.RuleIndex()
				stack = append(stack, Frame{Ref: grammar.UserRef{Rule: child, Pos: 0}})
				return descendFrames(f, stack)
			}
			stack = stack[:last]
			continue
		}
		// Popping the anchor frame.
		if top.Ref.Rule == 0 {
			return stack, AdvanceEnd
		}
		// Upward extension of a partial hypothesis (cf. extendUp): only
		// branch-free when exactly one run references the finished rule
		// and that run is not repeated (a repeated run branches into
		// stay-vs-leave hypotheses).
		users := f.Rules[top.Ref.Rule].Users
		if len(users) != 1 {
			return stack, AdvanceBranch
		}
		urun := f.RunAt(users[0])
		if urun.Count > 1 {
			return stack, AdvanceBranch
		}
		stack[0] = Frame{Ref: users[0], Iter: urun.Count - 1}
	}
}

// descendFrames extends the stack downward until the top frame designates a
// terminal run, entering each nested rule at its first run (the in-place
// mirror of descend). Appends reuse the stack's capacity in steady state.
// pythia:hotpath — completes every in-place advance.
func descendFrames(f *grammar.Frozen, stack []Frame) ([]Frame, AdvanceResult) {
	for depth := 0; ; depth++ {
		if depth > len(f.Rules)+1 {
			// Defensive: a validated grammar is acyclic, so this cannot
			// trigger; avoid spinning on corrupted input.
			return stack, AdvanceBranch
		}
		top := stack[len(stack)-1]
		run := f.RunAt(top.Ref)
		if run.Sym.IsTerminal() {
			return stack, AdvanceOK
		}
		child := run.Sym.RuleIndex()
		if len(f.Rules[child].Body) == 0 {
			// No successor through an empty body; let the general
			// machinery drop the branch.
			return stack, AdvanceBranch
		}
		stack = append(stack, Frame{Ref: grammar.UserRef{Rule: child, Pos: 0}})
	}
}
