// Package recorder implements PYTHIA-RECORD (paper section II-A): during the
// reference execution of a program, the runtime system notifies the recorder
// of events; the recorder reduces each thread's event stream into a grammar
// on the fly and, optionally, logs event timestamps. At the end of the run,
// Finish freezes the grammar and replays the timestamp log through it to
// build the per-context timing model of section II-C. The replay
// (model.TimingBuilder.Replay) expands the frozen grammar once: a terminal
// run resolves its context at most model.MaxContextDepth slot probes deep and
// folds its deltas into one merge, and a repeated loop body is walked once
// and its later iterations folded from a memo, so the cost tracks the
// grammar and the distinct contexts more than the recorded events. It
// allocates per distinct timing context, not per event.
package recorder

import (
	"fmt"
	"time"

	"repro/internal/events"
	"repro/internal/grammar"
	"repro/internal/model"
)

// Clock returns a monotonically non-decreasing time in nanoseconds. Real
// runs use a wall clock; the discrete-event OpenMP substrate injects its
// virtual clock so that recorded durations are virtual too.
type Clock func() int64

// Option configures a Recorder.
type Option func(*Recorder)

// WithClock enables timestamp recording with the given clock.
func WithClock(c Clock) Option {
	return func(r *Recorder) { r.clock = c }
}

// WithoutTimestamps disables timestamp recording; the resulting trace
// carries no timing model and duration predictions return zero.
func WithoutTimestamps() Option {
	return func(r *Recorder) { r.clock = nil; r.noTime = true }
}

// WithMaxEvents caps the number of events folded into the grammar. Beyond
// the cap the recording degrades gracefully instead of growing without
// bound: the grammar is frozen, further events are counted but dropped, and
// the resulting trace is marked truncated. Zero or negative means
// unlimited.
func WithMaxEvents(n int64) Option {
	return func(r *Recorder) { r.maxEvents = n }
}

// WithGrammarBudget caps the grammar's memory footprint: at most maxRules
// live rules and maxNodes live body nodes. An adversarial (high-entropy)
// event stream defeats Sequitur's compression and would otherwise grow the
// grammar linearly with the stream; on breach the recording degrades
// exactly like WithMaxEvents. Zero or negative disables either cap.
func WithGrammarBudget(maxRules, maxNodes int) Option {
	return func(r *Recorder) { r.maxRules = maxRules; r.maxNodes = maxNodes }
}

// WithCheckpointSink hands a Checkpoint of the recording to sink every
// `every` events (counting budget-dropped events, so truncated recordings
// keep reporting their growing drop count). The checkpoint is taken on the
// recording thread — the only goroutine allowed to touch the live grammar —
// but is cheap: a Freeze of the compressed grammar plus a view of the
// timestamp log. The expensive part (rebuilding the timing model) is
// deferred to Checkpoint.Materialize, which the sink's consumer runs
// wherever it likes. every <= 0 disables checkpointing.
func WithCheckpointSink(every int64, sink func(Checkpoint)) Option {
	return func(r *Recorder) {
		if every > 0 && sink != nil {
			r.ckptEvery = every
			r.ckptSink = sink
		}
	}
}

// Recorder accumulates one thread's events. It is not safe for concurrent
// use; Pythia keeps one recorder per thread (paper section III-C1).
type Recorder struct {
	g      *grammar.Grammar
	clock  Clock
	noTime bool
	deltas []int64
	last   int64
	seen   bool

	// Resource budgets (zero = unlimited) and the degradation they trigger:
	// once truncated, the grammar and the timing log are frozen and events
	// are merely counted.
	maxEvents  int64
	maxRules   int
	maxNodes   int
	truncated  bool
	truncCause string
	dropped    int64

	// Checkpoint cadence (zero = disabled): every ckptEvery events the
	// recording thread hands a Checkpoint to ckptSink. ckptLast is the
	// event total (recorded + dropped) at the previous checkpoint.
	ckptEvery int64
	ckptLast  int64
	ckptSink  func(Checkpoint)
}

// New returns a recorder. By default timestamps are recorded with a
// monotonic wall clock.
func New(opts ...Option) *Recorder {
	r := &Recorder{g: grammar.New()}
	for _, o := range opts {
		o(r)
	}
	if r.clock == nil && !r.noTime {
		base := time.Now()
		r.clock = func() int64 { return int64(time.Since(base)) }
	}
	return r
}

// Record notifies the recorder that event id was raised now.
func (r *Recorder) Record(id events.ID) {
	if r.clock != nil {
		r.RecordAt(id, r.clock())
		return
	}
	if r.truncated {
		r.dropped++
		r.maybeCheckpoint()
		return
	}
	r.g.Append(int32(id))
	r.checkBudget()
	r.maybeCheckpoint()
}

// RecordAt notifies the recorder that event id was raised at the explicit
// timestamp now (nanoseconds on the recorder's clock). Timestamps must be
// non-decreasing.
func (r *Recorder) RecordAt(id events.ID, now int64) {
	if r.truncated {
		r.dropped++
		r.last = now
		r.maybeCheckpoint()
		return
	}
	delta := int64(0)
	if r.seen {
		delta = now - r.last
		if delta < 0 {
			delta = 0
		}
	}
	r.last = now
	r.seen = true
	if !r.noTime {
		r.deltas = append(r.deltas, delta)
	}
	r.g.Append(int32(id))
	r.checkBudget()
	r.maybeCheckpoint()
}

// checkBudget freezes the recording when a resource budget is breached.
// Comparisons against the grammar's O(1) counters — no scan.
// pythia:hotpath — three compares per recorded event.
func (r *Recorder) checkBudget() {
	switch {
	case r.maxEvents > 0 && r.g.EventCount() >= r.maxEvents:
		r.truncateEvents()
	case r.maxRules > 0 && r.g.RuleCount() > r.maxRules:
		r.truncateRules()
	case r.maxNodes > 0 && r.g.NodeCount() > r.maxNodes:
		r.truncateNodes()
	}
}

// The truncate* transitions run at most once per recording, off the
// annotated hot path — formatting the cause here is free.

func (r *Recorder) truncateEvents() {
	r.truncate(fmt.Sprintf("event cap %d reached", r.maxEvents))
}

func (r *Recorder) truncateRules() {
	r.truncate(fmt.Sprintf("rule budget %d exceeded (%d live rules)", r.maxRules, r.g.RuleCount()))
}

func (r *Recorder) truncateNodes() {
	r.truncate(fmt.Sprintf("node budget %d exceeded (%d live nodes)", r.maxNodes, r.g.NodeCount()))
}

// truncate freezes the grammar and timing log; subsequent events are only
// counted. The trace produced by Finish will carry the truncation mark.
func (r *Recorder) truncate(cause string) {
	r.truncated = true
	r.truncCause = cause
}

// Truncated reports whether a resource budget froze this recording.
func (r *Recorder) Truncated() bool { return r.truncated }

// TruncationCause describes the breached budget ("" when not truncated).
func (r *Recorder) TruncationCause() string { return r.truncCause }

// DroppedEvents returns the number of events seen after the budget froze
// the grammar (0 when not truncated).
func (r *Recorder) DroppedEvents() int64 { return r.dropped }

// EventCount returns the number of events seen so far, including events
// dropped after a budget breach (record-overhead accounting wants the
// true stream length, not the truncated one).
func (r *Recorder) EventCount() int64 { return r.g.EventCount() + r.dropped }

// RuleCount returns the current number of grammar rules, the paper's measure
// of grammar size (Table I).
func (r *Recorder) RuleCount() int { return r.g.RuleCount() }

// Grammar exposes the live grammar for inspection (dumping, invariant
// checks in tests).
func (r *Recorder) Grammar() *grammar.Grammar { return r.g }

// Checkpoint is a consistent copy of a recording's state, cheap to take on
// the recording thread and safe to Materialize on any other goroutine: the
// grammar is an immutable Freeze and the delta log is a capacity-capped
// prefix view of an append-only slice the owner only ever extends.
type Checkpoint struct {
	// Grammar is the frozen reduction of the events recorded so far.
	Grammar *grammar.Frozen
	// Truncated and Dropped mirror the budget state at checkpoint time.
	Truncated bool
	Dropped   int64

	deltas []int64
}

// Events returns the number of events the checkpoint covers, including
// budget-dropped events.
func (c Checkpoint) Events() int64 { return c.Grammar.EventCount + c.Dropped }

// Materialize rebuilds the per-thread trace artifact — including the timing
// model replay, the expensive part of finishing a recording — from the
// checkpointed state. Unlike taking the checkpoint, this may run on any
// goroutine.
func (c Checkpoint) Materialize() *model.ThreadTrace {
	return buildThreadTrace(c.Grammar, c.deltas, c.Truncated, c.Dropped)
}

// Checkpoint captures the current state. It must be called from the
// recording thread (like every other Recorder method).
func (r *Recorder) Checkpoint() Checkpoint {
	return Checkpoint{
		Grammar:   r.g.Freeze(),
		Truncated: r.truncated,
		Dropped:   r.dropped,
		// The three-index form pins the capacity: a later append by the
		// recording thread reallocates or writes past this view, never
		// into it.
		deltas: r.deltas[:len(r.deltas):len(r.deltas)],
	}
}

// maybeCheckpoint hands a checkpoint to the sink when the cadence is due.
// pythia:hotpath — one compare per recorded event when enabled.
func (r *Recorder) maybeCheckpoint() {
	if r.ckptEvery <= 0 {
		return
	}
	if total := r.g.EventCount() + r.dropped; total-r.ckptLast >= r.ckptEvery {
		r.ckptLast = total
		r.ckptSink(r.Checkpoint())
	}
}

// Snapshot freezes the structure recorded *so far* without ending the
// recording — the crash-tolerance hook: a long run can checkpoint its trace
// periodically and keep recording. Snapshots carry the timing model built
// from the deltas seen so far.
func (r *Recorder) Snapshot() *model.ThreadTrace {
	return r.finishInternal()
}

// Finish freezes the recorded structure into a per-thread trace artifact.
// When timestamps were recorded, the event sequence is replayed through the
// grammar — exactly as the paper describes — to associate each grammar
// context with the mean elapsed time since the previous event.
func (r *Recorder) Finish() *model.ThreadTrace {
	return r.finishInternal()
}

func (r *Recorder) finishInternal() *model.ThreadTrace {
	return buildThreadTrace(r.g.Freeze(), r.deltas, r.truncated, r.dropped)
}

// buildThreadTrace assembles the trace artifact from frozen state: when
// timestamps were recorded, the event sequence is replayed through the
// grammar to associate each grammar context with the mean elapsed time
// since the previous event. Pure function of its arguments — both Finish
// and Checkpoint.Materialize (possibly on another goroutine) run it.
func buildThreadTrace(frozen *grammar.Frozen, deltas []int64, truncated bool, dropped int64) *model.ThreadTrace {
	th := &model.ThreadTrace{
		Grammar:   frozen,
		Truncated: truncated,
		Dropped:   dropped,
	}
	if len(deltas) == 0 {
		return th
	}
	var timing model.TimingBuilder
	timing.Replay(frozen, deltas)
	th.Timing = timing.Timing()
	return th
}
