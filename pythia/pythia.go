// Package pythia is the public API of the Pythia oracle library, a Go
// implementation of "PYTHIA: an oracle to guide runtime system decisions"
// (Colin, Trahay, Conan — IEEE CLUSTER 2022).
//
// Pythia lets a runtime system (a message-passing library, a parallel-region
// scheduler, a task runtime…) replace heuristics about the future behaviour
// of an application with predictions derived from a previous execution:
//
//   - On the first run (the reference execution), the runtime notifies the
//     oracle of events — entries/exits of interesting functions, parallel
//     region boundaries, communication calls. Pythia reduces each thread's
//     event stream into a compact grammar on the fly and saves it, together
//     with a per-context timing model, into a trace file.
//
//   - On subsequent runs the trace file is reloaded. The runtime submits the
//     same events; Pythia follows the execution through the grammar and can
//     answer: which event will happen x events from now, with what
//     probability, and after how much time. Unexpected events are tolerated:
//     the oracle re-anchors itself and keeps predicting.
//
// # Recording
//
//	o := pythia.NewRecordOracle()
//	send := o.Intern("MPI_Send", dest)
//	th := o.Thread(rank)
//	th.Submit(send)                   // at every key point
//	...
//	o.FinishAndSave("app.pythia")
//
// # Predicting
//
//	o, err := pythia.LoadOracle("app.pythia", pythia.Config{})
//	th := o.Thread(rank)
//	th.Submit(send)                   // same notifications as before
//	next, ok := th.PredictAt(1)       // what happens next?
//	dur, ok := th.PredictDurationUntil(regionEnd, 64)
//
// One Thread handle must be used from one goroutine at a time; the Oracle
// itself is safe for concurrent Thread lookup and event interning.
package pythia

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/model"
	"repro/internal/predictor"
	"repro/internal/recorder"
	"repro/internal/tracefile"
)

// ID identifies an interned event (a key point plus its discriminating
// payload).
type ID = events.ID

// Config tunes prediction; the zero value selects sensible defaults.
type Config = predictor.Config

// Prediction is one predicted future event: the event, its estimated
// probability, its distance in events, and the expected elapsed time.
type Prediction = predictor.Prediction

// TraceSet is the content of a Pythia trace file: per-thread grammars and
// timing models plus the shared event table.
type TraceSet = model.TraceSet

// Thread is the per-thread oracle handle. See the package example for the
// method set: Submit, PredictAt, PredictSequence, PredictDurationUntil.
type Thread = core.Thread

// Stats counts prediction-tracking outcomes.
type Stats = predictor.Stats

// RecordOption configures recording.
type RecordOption = core.RecordOption

// WithClock replaces the default clock (the CPU's time-stamp counter where it
// is invariant, the monotonic clock elsewhere) with a caller's, in ns.
// Simulated runtimes inject their virtual clock so durations are virtual too.
func WithClock(clock func() int64) RecordOption {
	return core.WithRecorderOptions(recorder.WithClock(clock))
}

// WithoutTimestamps disables the timing model; duration predictions on the
// resulting trace return zero.
func WithoutTimestamps() RecordOption {
	return core.WithRecorderOptions(recorder.WithoutTimestamps())
}

// WithMaxEvents caps the number of events folded into each thread's grammar.
// Beyond the cap the recording degrades gracefully: the grammar is frozen,
// further events are counted but not recorded, and the thread's trace is
// marked truncated. Zero or negative means unlimited.
func WithMaxEvents(n int64) RecordOption {
	return core.WithRecorderOptions(recorder.WithMaxEvents(n))
}

// WithGrammarBudget caps each thread grammar's memory footprint: at most
// maxRules live rules and maxNodes live body nodes. On breach the recording
// degrades exactly like WithMaxEvents. Zero or negative disables either cap.
func WithGrammarBudget(maxRules, maxNodes int) RecordOption {
	return core.WithRecorderOptions(recorder.WithGrammarBudget(maxRules, maxNodes))
}

// CheckpointConfig configures crash-safe journaled checkpoints of a
// recording oracle: Dir is the journal directory (required), EveryEvents the
// per-thread checkpoint cadence in events, Interval an optional wall-clock
// cadence, Keep the number of generations retained. See
// core.CheckpointPolicy for the field semantics.
type CheckpointConfig = core.CheckpointPolicy

// WithCheckpoint makes a recording oracle periodically persist its
// in-progress trace as checkpoint generations in cfg.Dir, so that a crashed
// run can be salvaged with Recover instead of losing the whole reference
// execution. Checkpoint writes happen on a background goroutine — never on
// the event hot path — and write failures degrade Health without affecting
// the recording itself.
func WithCheckpoint(cfg CheckpointConfig) RecordOption { return core.WithCheckpoint(cfg) }

// Provenance records where a trace set came from when it was not produced by
// a clean end-of-run Finish: the checkpoint generation it was written as
// (with lineage when the online-learning lifecycle minted it), and whether
// it was salvaged by crash recovery.
type Provenance = model.Provenance

// ProvKind says how a journaled generation was minted; see Provenance.
type ProvKind = model.ProvKind

// Generation mint kinds: a plain (seed or record-mode) checkpoint, a
// shadow-model promotion, a post-promotion rollback.
const (
	ProvCheckpoint = model.ProvCheckpoint
	ProvPromotion  = model.ProvPromotion
	ProvRollback   = model.ProvRollback
)

// LearnPolicy configures the guarded model lifecycle of an online-learning
// oracle: the scoring epoch, the promotion hysteresis and margin, the
// post-promotion watch window, the rollback cooldown, and the optional
// generation journal directory. The zero value selects defaults and keeps
// generations in memory.
type LearnPolicy = core.LearnPolicy

// ModelInfo is a snapshot of an oracle's model lifecycle: whether learning
// is enabled, the lifecycle state, the serving generation, and the
// promotion/rollback/epoch counters.
type ModelInfo = core.ModelInfo

// predictConfig is assembled from PredictOptions.
type predictConfig struct {
	learn   *LearnPolicy
	recOpts []RecordOption
}

// PredictOption configures a predicting oracle beyond its prediction
// Config; today that means online learning.
type PredictOption func(*predictConfig)

// WithOnlineLearning turns a predicting oracle into an always-on one: the
// loaded trace keeps serving predictions while every thread's live event
// stream is re-recorded as a shadow grammar; the submitting threads score
// both models over tumbling epochs and promote the shadow only when it
// out-predicts the serving model with hysteresis, rolling the promotion
// back automatically if it regresses in its watch window. RecordOptions
// configure the shadow recorders — the same budgets and clocks a recording
// oracle takes (WithMaxEvents, WithGrammarBudget, WithClock, ...).
func WithOnlineLearning(pol LearnPolicy, opts ...RecordOption) PredictOption {
	return func(c *predictConfig) {
		c.learn = &pol
		c.recOpts = append(c.recOpts, opts...)
	}
}

// RecoveryReport describes what Recover did: the generation used and the
// generations skipped, with reasons.
type RecoveryReport = tracefile.RecoveryReport

// Recover salvages the freshest loadable checkpoint generation from a
// journal directory written by WithCheckpoint. The recovered trace set is a
// prefix of the crashed recording: every thread is marked truncated and the
// set carries Salvaged provenance. The report is non-nil even on error and
// lists every generation that had to be skipped (torn write, bad CRC, ...).
func Recover(dir string) (*TraceSet, *RecoveryReport, error) {
	return tracefile.Recover(dir)
}

// State is the oracle's degradation state (see Health).
type State = core.State

// Degradation states: a Healthy oracle answers normally; a Degraded oracle
// failed open (contained internal panic, or breached record budget); a
// Quarantined oracle had its predictions pulled by the divergence watchdog
// and recovers automatically when accuracy returns.
const (
	Healthy     = core.StateHealthy
	Degraded    = core.StateDegraded
	Quarantined = core.StateQuarantined
)

// Health is a snapshot of the oracle's reliability state: the aggregate
// degradation state, the first failure cause, and failure counters.
type Health = core.Health

// Oracle is a process-wide Pythia instance, either recording or predicting.
//
// Every exported method fails open (panic containment): an internal Pythia
// panic is recovered and degrades the oracle instead of crashing the host
// runtime. Poll Health to observe degradation.
// pythia:contained
type Oracle struct {
	sess *core.Session
}

// NewRecordOracle starts a recording (reference execution) oracle. Unless
// configured otherwise, timestamps come from the default clock (see
// WithClock).
func NewRecordOracle(opts ...RecordOption) *Oracle {
	return &Oracle{sess: core.NewRecordSession(opts...)}
}

// NewPredictOracle starts a predicting oracle from an in-memory trace set.
// With WithOnlineLearning the oracle additionally learns from the live
// stream under the guarded model lifecycle.
func NewPredictOracle(ts *TraceSet, cfg Config, opts ...PredictOption) (*Oracle, error) {
	var pc predictConfig
	for _, o := range opts {
		o(&pc)
	}
	if pc.learn != nil {
		sess, err := core.NewLearningSession(ts, cfg, *pc.learn, pc.recOpts...)
		if err != nil {
			return nil, err
		}
		return &Oracle{sess: sess}, nil
	}
	sess, err := core.NewPredictSession(ts, cfg)
	if err != nil {
		return nil, err
	}
	return &Oracle{sess: sess}, nil
}

// LoadOracle starts a predicting oracle from a trace file.
func LoadOracle(path string, cfg Config, opts ...PredictOption) (*Oracle, error) {
	ts, err := tracefile.Load(path)
	if err != nil {
		return nil, fmt.Errorf("pythia: loading trace: %w", err)
	}
	return NewPredictOracle(ts, cfg, opts...)
}

// Recording reports whether the oracle is in record mode.
// pythia:allow containment — reads the session mode under the session's own
// synchronisation; nothing here can panic.
func (o *Oracle) Recording() bool { return o.sess.Mode() == core.ModeRecord }

// Health returns a snapshot of the oracle's reliability state: Healthy,
// Degraded (fail-open after a contained panic or a breached record budget)
// or Quarantined (divergence watchdog), with the first failure cause and
// failure counters. Safe to call from any goroutine.
// pythia:allow containment — delegates to Session.Health, which reads under
// the session's own synchronisation.
func (o *Oracle) Health() Health { return o.sess.Health() }

// Intern returns the event ID for a key point name, optionally discriminated
// by payload values (e.g. a destination rank): Intern("MPI_Send", 3) and
// Intern("MPI_Send", 5) are distinct events. On a degraded oracle Intern
// returns an inert ID (-1) that Submit ignores.
func (o *Oracle) Intern(name string, args ...int64) (id ID) {
	if o.sess.Failed() {
		return -1
	}
	defer o.sess.Contain("Oracle.Intern")
	return o.sess.Registry().InternArgs(name, args...)
}

// Lookup resolves an already-interned descriptor without creating it.
func (o *Oracle) Lookup(name string, args ...int64) (id ID) {
	id = -1
	if o.sess.Failed() {
		return id
	}
	defer o.sess.Contain("Oracle.Lookup")
	return o.sess.Registry().Lookup(name, args...)
}

// EventName returns the descriptor of an event ID.
func (o *Oracle) EventName(id ID) (name string) {
	defer o.sess.Contain("Oracle.EventName")
	return o.sess.Registry().Name(id)
}

// Thread returns the oracle handle for thread tid, creating it on first use.
// The handle is never nil: if thread creation fails internally the oracle
// degrades and the handle is inert.
// pythia:allow containment — delegates to Session.Thread, whose creation path
// is contained (createThreadContained) and returns an inert stub on failure.
func (o *Oracle) Thread(tid int32) *Thread { return o.sess.Thread(tid) }

// Finish ends a recording oracle and returns its trace set. It returns an
// error — never panics — when the oracle is not recording or has degraded.
func (o *Oracle) Finish() (ts *TraceSet, err error) {
	defer o.sess.ContainTo("Oracle.Finish", &err)
	return o.sess.FinishRecord()
}

// CheckpointNow synchronously writes a checkpoint generation (record mode
// with WithCheckpoint only; steady-state checkpointing needs no manual
// calls). It exists for hosts that want a durable cut at a known boundary,
// e.g. the end of an application phase.
func (o *Oracle) CheckpointNow() (err error) {
	defer o.sess.ContainTo("Oracle.CheckpointNow", &err)
	return o.sess.CheckpointNow()
}

// FinishAndSave ends a recording oracle and writes the trace file.
func (o *Oracle) FinishAndSave(path string) (err error) {
	defer o.sess.ContainTo("Oracle.FinishAndSave", &err)
	ts, err := o.sess.FinishRecord()
	if err != nil {
		return err
	}
	return tracefile.Save(path, ts)
}

// ModelInfo returns a snapshot of the oracle's model lifecycle. Oracles
// without online learning report Enabled=false and the "frozen" state.
func (o *Oracle) ModelInfo() (mi ModelInfo) {
	defer o.sess.Contain("Oracle.ModelInfo")
	return o.sess.ModelInfo()
}

// Promote forces an immediate promotion of the current shadow model,
// returning the minted generation number (online learning only; steady
// state promotes by score). The promoted model enters the normal watch
// window, so a regretted forced promotion still rolls back automatically.
func (o *Oracle) Promote() (gen uint64, err error) {
	defer o.sess.ContainTo("Oracle.Promote", &err)
	return o.sess.Promote()
}

// Rollback forces an immediate rollback to the previous generation,
// returning the minted generation number (online learning only).
func (o *Oracle) Rollback() (gen uint64, err error) {
	defer o.sess.ContainTo("Oracle.Rollback", &err)
	return o.sess.Rollback()
}

// Close releases the oracle's background machinery (a learning oracle's
// pending journal write and the checkpointer, when present). Idempotent; oracles without
// either need not call it.
func (o *Oracle) Close() {
	defer o.sess.Contain("Oracle.Close")
	o.sess.Close()
}

// SaveTraceSet writes a trace set to a file (exposed for tools).
func SaveTraceSet(path string, ts *TraceSet) error { return tracefile.Save(path, ts) }

// LoadTraceSet reads a trace file (exposed for tools).
func LoadTraceSet(path string) (*TraceSet, error) { return tracefile.Load(path) }
