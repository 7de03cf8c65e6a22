// Package progress implements Pythia's progress sequences (paper section
// II-B): paths through the grammar that pinpoint one occurrence of a
// terminal in the reference trace. A progress sequence anchored at the root
// identifies the occurrence uniquely and advances deterministically; a
// partial progress sequence (used after an unexpected event) anchors at an
// inner rule and grows upward as subsequent events disambiguate the context,
// branching into weighted alternatives when several contexts remain
// possible.
//
// The package has two forms of the same transitions. Position with Start,
// Occurrences and Successors (this file) is the plain one: immutable values,
// a fresh stack per step — what tests and the reference predictor read, and
// what the other form is checked against. Frontier advances a whole weighted
// set of hypotheses in a frame arena, and with AdvanceLone one branch-free
// hypothesis in place. Runtime paths use only Frontier.
package progress

import (
	"fmt"
	"strings"

	"repro/internal/grammar"
)

// Frame is one step of a progress sequence: a run inside a rule body (Ref)
// and the repetition of that run currently executing (Iter, 0-based).
type Frame struct {
	Ref  grammar.UserRef
	Iter uint32
}

// Position is a progress sequence. Frames[0] is the topmost (anchor) frame;
// each following frame lies inside the rule referenced by the run above it;
// the final frame designates a terminal run. A Position is immutable: all
// operations return new values.
type Position struct {
	frames []Frame
}

// Branch is a weighted alternative position. Weights are relative
// probabilities derived from occurrence counts in the reference trace.
type Branch struct {
	Pos    Position
	Weight float64
}

// NewPosition builds a position from frames (topmost first). Intended for
// tests; normal construction goes through Start, Occurrences and Successors.
func NewPosition(frames ...Frame) Position {
	return Position{frames: append([]Frame(nil), frames...)}
}

// Frames returns a copy of the frame stack, topmost first.
func (p Position) Frames() []Frame { return append([]Frame(nil), p.frames...) }

// Depth returns the number of frames.
func (p Position) Depth() int { return len(p.frames) }

// Valid reports whether the position has at least one frame.
func (p Position) Valid() bool { return len(p.frames) > 0 }

// Anchored reports whether the position is anchored at the root rule, i.e.
// identifies a unique occurrence in the reference trace.
func (p Position) Anchored() bool {
	return len(p.frames) > 0 && p.frames[0].Ref.Rule == 0
}

// Ref returns the terminal run the position designates (the last frame).
func (p Position) Ref() grammar.UserRef { return p.frames[len(p.frames)-1].Ref }

// AppendRefs appends the run references of the frame stack (topmost first)
// to buf and returns the extended slice. It lets hot paths extract the
// progress-sequence path without allocating.
// pythia:hotpath — the caller owns and reuses buf.
func (p Position) AppendRefs(buf []grammar.UserRef) []grammar.UserRef {
	for _, fr := range p.frames {
		buf = append(buf, fr.Ref)
	}
	return buf
}

// Terminal returns the event id of the designated terminal run.
// pythia:hotpath — one call per tracked observation.
func (p Position) Terminal(f *grammar.Frozen) int32 {
	return f.RunAt(p.Ref()).Sym.Event()
}

// Key returns a comparable encoding of the position: the reference form of
// "same hypothesis", which Frontier.MergeCap decides by comparing frames.
func (p Position) Key() string {
	var b strings.Builder
	b.Grow(len(p.frames) * 12)
	for _, fr := range p.frames {
		fmt.Fprintf(&b, "%d.%d.%d;", fr.Ref.Rule, fr.Ref.Pos, fr.Iter)
	}
	return b.String()
}

// String renders the position for debugging.
func (p Position) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i, fr := range p.frames {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "R%d[%d]@%d", fr.Ref.Rule, fr.Ref.Pos, fr.Iter)
	}
	b.WriteByte(']')
	return b.String()
}

// clone returns a deep copy of the frame stack with room for one more frame.
func (p Position) clone() []Frame {
	out := make([]Frame, len(p.frames), len(p.frames)+4)
	copy(out, p.frames)
	return out
}

// Start returns the position of the first terminal of the trace, anchored at
// the root, or ok=false for an empty grammar.
func Start(f *grammar.Frozen) (Position, bool) {
	if len(f.Rules) == 0 || len(f.Rules[0].Body) == 0 {
		return Position{}, false
	}
	stack := []Frame{{Ref: grammar.UserRef{Rule: 0, Pos: 0}}}
	return descend(f, stack)
}

// descend extends the stack downward until the top frame designates a
// terminal run, entering each nested rule at its first run.
func descend(f *grammar.Frozen, stack []Frame) (Position, bool) {
	for depth := 0; ; depth++ {
		if depth > len(f.Rules)+1 {
			// Defensive: a validated grammar is acyclic, so this cannot
			// trigger; avoid spinning on corrupted input.
			return Position{}, false
		}
		top := stack[len(stack)-1]
		run := f.RunAt(top.Ref)
		if run.Sym.IsTerminal() {
			return Position{frames: stack}, true
		}
		child := run.Sym.RuleIndex()
		if len(f.Rules[child].Body) == 0 {
			return Position{}, false
		}
		stack = append(stack, Frame{Ref: grammar.UserRef{Rule: child, Pos: 0}})
	}
}

// Occurrences returns re-anchoring hypotheses for an observed event: one or
// two weighted partial positions per grammar site holding that terminal
// (paper section II-B2). For a run with repetition count c the "staying"
// hypothesis (more repetitions of the event follow) covers c-1 of the c
// occurrences and the "leaving" hypothesis (this was the last repetition)
// covers one. Weights are proportional to occurrence counts in the
// reference trace and are normalised to sum to 1.
func Occurrences(f *grammar.Frozen, eventID int32) []Branch {
	sites := f.TermSites[eventID]
	if len(sites) == 0 {
		return nil
	}
	var out []Branch
	var total float64
	for _, site := range sites {
		run := f.RunAt(site)
		occ := float64(f.Rules[site.Rule].Occ)
		if run.Count > 1 {
			out = append(out, Branch{
				Pos:    Position{frames: []Frame{{Ref: site, Iter: 0}}},
				Weight: occ * float64(run.Count-1),
			})
		}
		out = append(out, Branch{
			Pos:    Position{frames: []Frame{{Ref: site, Iter: run.Count - 1}}},
			Weight: occ,
		})
		total += occ * float64(run.Count)
	}
	if total > 0 {
		for i := range out {
			out[i].Weight /= total
		}
	}
	return out
}

// Successors returns every position the trace can be at one terminal after
// p, with weights summing to at most w (weight is lost when the trace can
// end here). Anchored positions yield at most one successor; partial
// positions may branch during upward extension. Every call allocates the
// stacks it returns; Frontier.Step and Frontier.AdvanceLone are the in-place
// forms.
func Successors(f *grammar.Frozen, p Position, w float64) []Branch {
	if !p.Valid() {
		return nil
	}
	last := p.frames[len(p.frames)-1]
	run := f.RunAt(last.Ref)
	if last.Iter+1 < run.Count {
		// Next repetition of the same terminal run.
		stack := p.clone()
		stack[len(stack)-1].Iter++
		return []Branch{{Pos: Position{frames: stack}, Weight: w}}
	}
	var out []Branch
	climb(f, p.clone(), w, &out)
	return out
}

// climb resolves "the run at the top of stack just finished its last
// repetition": it advances to the next run, re-enters a repeating parent, or
// extends the context upward, appending resulting terminal positions to out.
func climb(f *grammar.Frozen, stack []Frame, w float64, out *[]Branch) {
	if w <= 0 {
		return
	}
	top := stack[len(stack)-1]
	body := f.Rules[top.Ref.Rule].Body
	if int(top.Ref.Pos)+1 < len(body) {
		// Move to the next run of the same body.
		stack[len(stack)-1] = Frame{Ref: grammar.UserRef{Rule: top.Ref.Rule, Pos: top.Ref.Pos + 1}}
		if pos, ok := descend(f, stack); ok {
			*out = append(*out, Branch{Pos: pos, Weight: w})
		}
		return
	}
	if len(stack) > 1 {
		// Finished the last run of this rule body: one expansion of the
		// parent run completed.
		parent := stack[len(stack)-2]
		prun := f.RunAt(parent.Ref)
		if parent.Iter+1 < prun.Count {
			// Re-enter the same rule for the next repetition.
			stack = stack[:len(stack)-1]
			stack[len(stack)-1].Iter++
			child := prun.Sym.RuleIndex()
			stack = append(stack, Frame{Ref: grammar.UserRef{Rule: child, Pos: 0}})
			if pos, ok := descend(f, stack); ok {
				*out = append(*out, Branch{Pos: pos, Weight: w})
			}
			return
		}
		climb(f, stack[:len(stack)-1], w, out)
		return
	}
	// Popping the anchor frame.
	if top.Ref.Rule == 0 {
		// End of the reference trace: no successor.
		return
	}
	extendUp(f, top.Ref.Rule, w, out)
}

// extendUp handles finishing one expansion of non-root rule done when the
// context above it is unknown: every run referencing the rule is a possible
// context, weighted by how often it occurs in the reference trace. Within a
// repeated run, completing a non-final repetition re-enters the rule
// ((c-1)/c of the occurrences) and completing the final one moves on (1/c).
func extendUp(f *grammar.Frozen, done int32, w float64, out *[]Branch) {
	users := f.Rules[done].Users
	if len(users) == 0 {
		return
	}
	var denom float64
	for _, u := range users {
		denom += float64(f.Rules[u.Rule].Occ) * float64(f.RunAt(u).Count)
	}
	if denom <= 0 {
		return
	}
	for _, u := range users {
		urun := f.RunAt(u)
		base := w * float64(f.Rules[u.Rule].Occ) * float64(urun.Count) / denom
		if urun.Count > 1 {
			// Re-enter: we approximate the unknown completed repetition by
			// the earliest one, maximising the repetitions still allowed.
			stay := base * float64(urun.Count-1) / float64(urun.Count)
			stack := []Frame{{Ref: u, Iter: 1}, {Ref: grammar.UserRef{Rule: done, Pos: 0}}}
			if pos, ok := descend(f, stack); ok {
				*out = append(*out, Branch{Pos: pos, Weight: stay})
			}
		}
		leave := base / float64(urun.Count)
		climb(f, []Frame{{Ref: u, Iter: urun.Count - 1}}, leave, out)
	}
}
