// Package tracediff compares two Pythia trace sets, in the spirit of the
// trace-diffing line of work the paper cites (DiffTrace): did two executions
// of an application behave the same, and if not, where do they diverge?
// It works on the grammars directly — never materialising full traces in
// memory — by walking both unfoldings in lockstep.
package tracediff

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/model"
	"repro/internal/progress"
)

// ThreadDiff is the comparison result for one thread.
type ThreadDiff struct {
	TID int32
	// OnlyA / OnlyB mark threads present in one set only.
	OnlyA, OnlyB bool
	// LenA, LenB are the unfolded trace lengths.
	LenA, LenB int64
	// Identical is true when the event descriptor sequences match exactly.
	Identical bool
	// DivergeAt is the index of the first differing event (-1 when one
	// trace is a strict prefix of the other or they are identical).
	DivergeAt int64
	// EventA, EventB are the descriptors at the divergence point.
	EventA, EventB string
	// RulesA, RulesB are the grammar sizes (structure may differ even for
	// identical traces, and vice versa).
	RulesA, RulesB int
}

// Diff compares two trace sets thread by thread.
type Diff struct {
	Threads []ThreadDiff
	// EventsOnlyA / EventsOnlyB are descriptors occurring in only one set.
	EventsOnlyA, EventsOnlyB []string
}

// Identical reports whether every shared thread's event sequence matches and
// no thread is missing from either side.
func (d *Diff) Identical() bool {
	for _, t := range d.Threads {
		if t.OnlyA || t.OnlyB || !t.Identical {
			return false
		}
	}
	return true
}

// Compare diffs two trace sets.
func Compare(a, b *model.TraceSet) *Diff {
	out := &Diff{}
	out.EventsOnlyA, out.EventsOnlyB = setDiff(usedEvents(a), usedEvents(b))

	seen := map[int32]bool{}
	for _, tid := range a.ThreadIDs() {
		seen[tid] = true
		ta := a.Threads[tid]
		tb, ok := b.Threads[tid]
		if !ok {
			out.Threads = append(out.Threads, ThreadDiff{
				TID: tid, OnlyA: true, LenA: ta.Grammar.EventCount,
				RulesA: len(ta.Grammar.Rules),
			})
			continue
		}
		out.Threads = append(out.Threads, compareThread(tid, a, b, ta, tb))
	}
	for _, tid := range b.ThreadIDs() {
		if !seen[tid] {
			tb := b.Threads[tid]
			out.Threads = append(out.Threads, ThreadDiff{
				TID: tid, OnlyB: true, LenB: tb.Grammar.EventCount,
				RulesB: len(tb.Grammar.Rules),
			})
		}
	}
	return out
}

// compareThread walks both grammars' unfoldings in lockstep, each a lone
// root-anchored hypothesis advanced in place, comparing event *descriptors*
// (ids may differ between sets).
func compareThread(tid int32, a, b *model.TraceSet, ta, tb *model.ThreadTrace) ThreadDiff {
	d := ThreadDiff{
		TID:       tid,
		LenA:      ta.Grammar.EventCount,
		LenB:      tb.Grammar.EventCount,
		RulesA:    len(ta.Grammar.Rules),
		RulesB:    len(tb.Grammar.Rules),
		DivergeAt: -1,
	}
	fa, fb := ta.Grammar, tb.Grammar
	// scratch is where each advance is worked out; both walks share it.
	var walkA, walkB, scratch progress.Frontier
	okA, okB := walkA.SetStart(fa), walkB.SetStart(fb)
	var idx int64
	for okA && okB {
		na := name(a, walkA.Terminal(fa, 0))
		nb := name(b, walkB.Terminal(fb, 0))
		if na != nb {
			d.DivergeAt = idx
			d.EventA, d.EventB = na, nb
			return d
		}
		// A root-anchored walk never branches: it advances until it ends.
		_, resA := walkA.AdvanceLone(fa, &scratch)
		_, resB := walkB.AdvanceLone(fb, &scratch)
		okA, okB = resA == progress.AdvanceOK, resB == progress.AdvanceOK
		idx++
	}
	d.Identical = !okA && !okB && d.LenA == d.LenB
	return d
}

func name(ts *model.TraceSet, id int32) string {
	if int(id) < len(ts.Events) {
		return ts.Events[id]
	}
	return fmt.Sprintf("?%d", id)
}

func usedEvents(ts *model.TraceSet) map[string]bool {
	out := map[string]bool{}
	for _, th := range ts.Threads {
		for _, id := range th.Grammar.TerminalIDs() {
			if int(id) < len(ts.Events) {
				out[ts.Events[id]] = true
			}
		}
	}
	return out
}

func setDiff(a, b map[string]bool) (onlyA, onlyB []string) {
	for k := range a {
		if !b[k] {
			onlyA = append(onlyA, k)
		}
	}
	for k := range b {
		if !a[k] {
			onlyB = append(onlyB, k)
		}
	}
	sort.Strings(onlyA)
	sort.Strings(onlyB)
	return
}

// Write renders the diff for humans, returning the first write error.
func (d *Diff) Write(w io.Writer) (err error) {
	pf := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	if d.Identical() {
		pf("traces are identical\n")
		return err
	}
	if len(d.EventsOnlyA) > 0 {
		pf("events only in A: %v\n", d.EventsOnlyA)
	}
	if len(d.EventsOnlyB) > 0 {
		pf("events only in B: %v\n", d.EventsOnlyB)
	}
	for _, t := range d.Threads {
		switch {
		case t.OnlyA:
			pf("thread %d: only in A (%d events)\n", t.TID, t.LenA)
		case t.OnlyB:
			pf("thread %d: only in B (%d events)\n", t.TID, t.LenB)
		case t.Identical:
			pf("thread %d: identical (%d events; %d vs %d rules)\n",
				t.TID, t.LenA, t.RulesA, t.RulesB)
		case t.DivergeAt >= 0:
			pf("thread %d: diverges at event %d: %q vs %q\n",
				t.TID, t.DivergeAt, t.EventA, t.EventB)
		default:
			pf("thread %d: one trace is a prefix of the other (%d vs %d events)\n",
				t.TID, t.LenA, t.LenB)
		}
	}
	return err
}
