// Package model defines the artifacts Pythia produces at the end of a
// reference execution and consumes on subsequent executions: the frozen
// grammar, the event descriptor table, and the optional timing model.
// PYTHIA-RECORD builds a Trace, the tracefile package serialises it, and
// PYTHIA-PREDICT navigates it.
package model

import (
	"fmt"
	"sort"

	"repro/internal/grammar"
)

// Stat accumulates a duration distribution (nanoseconds).
type Stat struct {
	Count int64
	Sum   int64
	Min   int64
	Max   int64
}

// Add folds one observation into the statistic.
func (s *Stat) Add(ns int64) {
	if s.Count == 0 || ns < s.Min {
		s.Min = ns
	}
	if s.Count == 0 || ns > s.Max {
		s.Max = ns
	}
	s.Count++
	s.Sum += ns
}

// Mean returns the average observation, or 0 when empty.
func (s Stat) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Merge folds other into s.
func (s *Stat) Merge(other Stat) {
	if other.Count == 0 {
		return
	}
	if s.Count == 0 {
		*s = other
		return
	}
	if other.Min < s.Min {
		s.Min = other.Min
	}
	if other.Max > s.Max {
		s.Max = other.Max
	}
	s.Count += other.Count
	s.Sum += other.Sum
}

// MaxContextDepth is the maximum progress-sequence suffix length (in grammar
// runs) used as a timing context. Deeper suffixes separate more contexts at
// more storage cost; four levels are enough to distinguish the paper's
// Fig. 6 cases ("BAb" vs "Ab") and every workload in the evaluation.
const MaxContextDepth = 4

// Timing is the per-context duration model of paper section II-C: the mean
// elapsed time from the previous event to the event designated by a progress
// sequence. As in the paper's Fig. 6, statistics are kept at every suffix
// granularity of the progress sequence: the full known context gives the
// most specific estimate, shorter suffixes serve as fallbacks when the
// context is only partially known.
//
// The contexts live in one table of interned suffixes (see contexts), the
// one TimingBuilder fills and hands over. A slot whose Stat has Count 0 — a
// tail interned only on the way to a deeper suffix — is not a context. The
// table is complete when TimingBuilder.Timing or the trace-file decoder
// returns it, and a lookup never changes it, so any number of predictors may
// read one Timing concurrently.
type Timing struct {
	ctx contexts
	// ByEvent is the context-free fallback: mean delta before each event id
	// regardless of context.
	ByEvent map[int32]Stat
}

// NewTiming returns an empty timing model.
func NewTiming() *Timing {
	return &Timing{ByEvent: make(map[int32]Stat)}
}

// AddPath records one observation for the event with the given progress
// sequence (refs topmost-first, last entry is the terminal run): in each of
// its suffixes up to MaxContextDepth runs and in the per-event statistic.
// It is the per-event form that tests build models with and check
// TimingBuilder against; the recorder's replay of a whole trace goes
// through TimingBuilder.
func (t *Timing) AddPath(refs []grammar.UserRef, eventID int32, ns int64) {
	for slot := t.ctx.chain(refs); slot >= 0; slot = t.ctx.ctxs[slot].tail {
		t.ctx.ctxs[slot].stat.Add(ns)
	}
	e := t.ByEvent[eventID]
	e.Add(ns)
	t.ByEvent[eventID] = e
}

// SetContext sets the statistic of the context refs (topmost-first, at most
// MaxContextDepth runs), interning it and its tails; a tail not set itself
// keeps Count 0. The trace-file decoder builds a Timing with it.
func (t *Timing) SetContext(refs []grammar.UserRef, s Stat) {
	if slot := t.ctx.chain(refs); slot >= 0 {
		t.ctx.ctxs[slot].stat = s
	}
}

// EachContext calls fn once for every context, in no particular order, with
// its suffix (topmost-first; valid only during the call) and statistic.
func (t *Timing) EachContext(fn func(refs []grammar.UserRef, s Stat)) {
	var refs [MaxContextDepth]grammar.UserRef
	for i := range t.ctx.ctxs {
		if t.ctx.ctxs[i].stat.Count == 0 {
			continue
		}
		// Following the tails from a suffix visits its runs outermost first.
		d := 0
		for s := int32(i); s >= 0; s = t.ctx.ctxs[s].tail {
			refs[d] = t.ctx.ctxs[s].ref
			d++
		}
		fn(refs[:d], t.ctx.ctxs[i].stat)
	}
}

// Contexts returns the number of contexts: suffixes that hold observations.
func (t *Timing) Contexts() int {
	n := 0
	for i := range t.ctx.ctxs {
		if t.ctx.ctxs[i].stat.Count > 0 {
			n++
		}
	}
	return n
}

// MeanForPath returns the expected duration preceding the event at the given
// progress sequence: the mean of its deepest suffix (up to MaxContextDepth
// runs) that is a context, else the per-event mean, else zero. It resolves
// the suffixes innermost first and stops at the first one not interned —
// the tails of an interned suffix are interned too — so it costs at most
// MaxContextDepth probes and does not allocate.
// pythia:hotpath — one call per hypothesis per look-ahead step.
func (t *Timing) MeanForPath(refs []grammar.UserRef, eventID int32) float64 {
	if t == nil {
		return 0
	}
	deepest, slot := int32(-1), int32(-1)
	for i, outermost := len(refs)-1, max(0, len(refs)-MaxContextDepth); i >= outermost; i-- {
		if slot = t.ctx.find(slot, refs[i]); slot < 0 {
			break
		}
		if t.ctx.ctxs[slot].stat.Count > 0 {
			deepest = slot
		}
	}
	if deepest >= 0 {
		return t.ctx.ctxs[deepest].stat.Mean()
	}
	if s, ok := t.ByEvent[eventID]; ok && s.Count > 0 {
		return s.Mean()
	}
	return 0
}

// Trace bundles everything a prediction run needs about a reference
// execution of one thread.
type Trace struct {
	// Grammar is the frozen reduction of the reference event stream.
	Grammar *grammar.Frozen
	// Events maps event ids to descriptors ("MPI_Send:3").
	Events []string
	// Timing is the optional duration model (nil when timestamps were not
	// recorded).
	Timing *Timing
}

// Validate checks cross-consistency of the trace artifacts.
func (tr *Trace) Validate() error {
	if tr.Grammar == nil {
		return fmt.Errorf("trace: missing grammar")
	}
	if err := tr.Grammar.Validate(); err != nil {
		return err
	}
	for _, id := range tr.Grammar.TerminalIDs() {
		if int(id) >= len(tr.Events) || id < 0 {
			return fmt.Errorf("trace: terminal %d has no descriptor (table size %d)", id, len(tr.Events))
		}
	}
	return nil
}

// EventName resolves an event id to its descriptor.
func (tr *Trace) EventName(id int32) string {
	if id < 0 || int(id) >= len(tr.Events) {
		return fmt.Sprintf("?event%d", id)
	}
	return tr.Events[id]
}

// ThreadTrace is the per-thread artifact pair inside a TraceSet.
type ThreadTrace struct {
	Grammar *grammar.Frozen
	Timing  *Timing
	// Truncated marks a recording degraded by a resource budget breach: the
	// grammar covers only a prefix of the thread's event stream. Predictions
	// from a truncated trace are valid for that prefix.
	Truncated bool
	// Dropped counts the events seen after the budget froze the grammar
	// (0 when not truncated).
	Dropped int64
}

// ProvKind classifies how a journaled generation was minted: a periodic
// checkpoint of an in-progress recording, a model promotion (the online
// learner's shadow out-predicted the serving model), or a rollback (the
// promoted model regressed and the previous one was re-minted).
type ProvKind uint8

const (
	// ProvCheckpoint is a periodic crash-safety checkpoint (or the initial
	// serving generation an online learner seeds its journal with).
	ProvCheckpoint ProvKind = iota
	// ProvPromotion marks a generation minted by promoting a shadow model
	// over the serving model.
	ProvPromotion
	// ProvRollback marks a generation minted by rolling back a regressed
	// promotion: its content is the pre-promotion model, re-minted under a
	// fresh number so generation history stays monotonic.
	ProvRollback
)

// String renders the provenance kind.
func (k ProvKind) String() string {
	switch k {
	case ProvCheckpoint:
		return "checkpoint"
	case ProvPromotion:
		return "promotion"
	case ProvRollback:
		return "rollback"
	default:
		return fmt.Sprintf("ProvKind(%d)", uint8(k))
	}
}

// Provenance records how a trace set came to exist when it was produced by
// the crash-safe recording pipeline rather than a clean FinishRecord: the
// checkpoint generation it was written as (or salvaged from) and whether it
// is a salvage. Generations minted by the online-learning lifecycle carry
// lineage on top: what kind of transition minted them, which generation
// they descend from, and when. Nil on traces saved by a normal end-of-run
// Finish.
type Provenance struct {
	// Generation is the checkpoint journal generation number.
	Generation uint64
	// Salvaged is true when the trace set was reconstructed from a
	// checkpoint journal by tracefile.Recover after a crash, rather than
	// written by the recording process itself.
	Salvaged bool
	// Kind is the transition that minted this generation (ProvCheckpoint
	// for plain crash-safety checkpoints).
	Kind ProvKind
	// Parent is the generation number this one descends from: the serving
	// generation at promotion time, or the regressed generation a rollback
	// replaced. 0 for root generations and plain checkpoints.
	Parent uint64
	// UnixNanos is when the generation was minted (0 when not recorded).
	UnixNanos int64
	// ReplicatedFrom is the address of the daemon this generation was
	// copied from by cluster migration/replication, "" for generations
	// recorded locally. It distinguishes a shipped model from a locally
	// minted one in lineage listings.
	ReplicatedFrom string
}

// TraceSet is the content of one Pythia trace file: one grammar (and
// optional timing model) per recorded thread, sharing a single event
// descriptor table. The paper records one grammar per thread (section
// III-C1).
type TraceSet struct {
	// Events maps event ids to descriptors, shared by all threads.
	Events []string
	// Threads maps a stable thread identifier (e.g. MPI rank, OpenMP thread
	// number) to its artifacts.
	Threads map[int32]*ThreadTrace
	// Provenance is the checkpoint/recovery origin of this trace set, nil
	// for traces produced by a normal end-of-run Finish.
	Provenance *Provenance
}

// Trace returns the single-thread view for tid, or nil when absent.
func (ts *TraceSet) Trace(tid int32) *Trace {
	th, ok := ts.Threads[tid]
	if !ok {
		return nil
	}
	return &Trace{Grammar: th.Grammar, Events: ts.Events, Timing: th.Timing}
}

// ThreadIDs returns the recorded thread identifiers in ascending order.
func (ts *TraceSet) ThreadIDs() []int32 {
	out := make([]int32, 0, len(ts.Threads))
	for tid := range ts.Threads {
		out = append(out, tid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Validate checks every thread's artifacts.
func (ts *TraceSet) Validate() error {
	if len(ts.Threads) == 0 {
		return fmt.Errorf("trace set: no threads")
	}
	for tid := range ts.Threads {
		if err := ts.Trace(tid).Validate(); err != nil {
			return fmt.Errorf("thread %d: %w", tid, err)
		}
	}
	return nil
}

// TotalEvents returns the number of events recorded across all threads.
func (ts *TraceSet) TotalEvents() int64 {
	var n int64
	for _, th := range ts.Threads {
		n += th.Grammar.EventCount
	}
	return n
}

// TotalRules returns the number of grammar rules across all threads.
func (ts *TraceSet) TotalRules() int64 {
	var n int64
	for _, th := range ts.Threads {
		n += int64(len(th.Grammar.Rules))
	}
	return n
}
