package progress

import "repro/internal/grammar"

// AdvanceResult is the outcome of a Stepper advance.
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

// Stepper advances a single-hypothesis position one terminal at a time
// without allocating in steady state. It is the engine behind the
// predictor's incremental prediction cache and every root-anchored walk
// (trace diff, the timing replay's test reference): where Successors clones
// the frame stack and returns fresh Branch slices on every call, a Stepper
// mutates an internal double-buffered stack and only ever reports the
// branch-free successor.
//
// The contract mirrors Successors exactly on the branch-free subset: when
// Advance returns AdvanceOK, the new position is the one Successors would
// have returned as its only branch, with the weight unchanged. On
// AdvanceEnd and AdvanceBranch the stepper's position is left unchanged so
// the caller can re-run the query with the general machinery.
type Stepper struct {
	f       *grammar.Frozen
	stack   []Frame
	scratch []Frame
}

// Reset seeds the stepper at position p (copying the frames into the
// stepper's own buffer; steady-state reseeding does not allocate).
func (s *Stepper) Reset(f *grammar.Frozen, p Position) {
	s.f = f
	s.stack = append(s.stack[:0], p.frames...)
}

// Start seeds the stepper at the first terminal of the trace, anchored at
// the root; false for an empty grammar. A walk from there never branches:
// Advance returns AdvanceOK until AdvanceEnd.
func (s *Stepper) Start(f *grammar.Frozen) bool {
	s.f = f
	s.stack = s.stack[:0]
	if len(f.Rules) == 0 || len(f.Rules[0].Body) == 0 {
		return false
	}
	out, res := descendFrames(f, append(s.stack, Frame{}))
	if res != AdvanceOK {
		return false
	}
	s.stack = out
	return true
}

// Live reports whether the stepper currently holds a position.
func (s *Stepper) Live() bool { return len(s.stack) > 0 }

// Terminal returns the event id of the designated terminal run.
// pythia:hotpath — one call per cached prediction step.
func (s *Stepper) Terminal() int32 {
	return s.f.RunAt(s.stack[len(s.stack)-1].Ref).Sym.Event()
}

// Anchored reports whether the position is anchored at the root rule.
func (s *Stepper) Anchored() bool {
	return len(s.stack) > 0 && s.stack[0].Ref.Rule == 0
}

// AppendRefs appends the run references of the frame stack (topmost first)
// to buf and returns the extended slice, without allocating when buf has
// capacity.
// pythia:hotpath — the caller owns and reuses buf.
func (s *Stepper) AppendRefs(buf []grammar.UserRef) []grammar.UserRef {
	for _, fr := range s.stack {
		buf = append(buf, fr.Ref)
	}
	return buf
}

// PosView returns the current position as a view aliasing the stepper's
// internal buffer. The view is invalidated by the next Advance or Reset;
// use Pos for a durable copy.
func (s *Stepper) PosView() Position { return Position{frames: s.stack} }

// Pos returns a durable copy of the current position.
func (s *Stepper) Pos() Position {
	return Position{frames: append([]Frame(nil), s.stack...)}
}

// Advance moves the position one terminal forward in place. On AdvanceOK
// the stepper holds the unique successor; on AdvanceEnd or AdvanceBranch
// the position is unchanged. Steady-state advances do not allocate (the
// stack and its shadow buffer are reused).
// pythia:hotpath — one call per tracked event and per cache-window step.
func (s *Stepper) Advance() AdvanceResult {
	if len(s.stack) == 0 {
		return AdvanceBranch
	}
	s.scratch = append(s.scratch[:0], s.stack...)
	out, res := advanceFrames(s.f, s.scratch)
	if res == AdvanceOK {
		s.scratch = s.stack
		s.stack = out
	} else {
		s.scratch = out
	}
	return res
}

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
