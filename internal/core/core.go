// Package core ties Pythia's pieces together into the oracle sessions that
// runtime systems interact with. A Session is either recording (first,
// reference execution) or predicting (subsequent executions); it manages a
// shared event registry and per-thread recorders or predictors, mirroring
// the paper's usage: "a grammar that represents the program execution is
// maintained for each thread".
package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/events"
	"repro/internal/model"
	"repro/internal/predictor"
	"repro/internal/recorder"
)

// Mode selects what a Session does with submitted events.
type Mode int

const (
	// ModeRecord builds grammars from submitted events (PYTHIA-RECORD).
	ModeRecord Mode = iota
	// ModePredict tracks submitted events against a reference trace and
	// answers prediction queries (PYTHIA-PREDICT).
	ModePredict
	// ModeOnline does both at once: predictions come from the serving
	// model while the current execution is re-recorded as its shadow (see
	// NewLearningSession).
	ModeOnline
)

// String renders the mode.
func (m Mode) String() string {
	switch m {
	case ModeRecord:
		return "record"
	case ModePredict:
		return "predict"
	case ModeOnline:
		return "online"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Session is a process-wide oracle instance. Thread handles are obtained
// with Thread and are individually single-threaded; Session itself is safe
// for concurrent Thread lookups and event interning.
type Session struct {
	mode Mode
	reg  *events.Registry

	// threads is a copy-on-write snapshot: Thread reads it lock-free (one
	// atomic load per dispatch), and mu serializes the rare writers (first
	// use of a tid), which install a fresh copy. Runtimes that dispatch
	// through Session.Thread at every key point would otherwise serialize
	// on a mutex that is almost never protecting a mutation.
	mu      sync.Mutex
	threads atomic.Pointer[map[int32]*Thread]

	// record mode
	recOpts []recorder.Option
	ckptPol CheckpointPolicy
	ckpt    *checkpointer // nil unless checkpointing is enabled

	// predict mode
	ref  *model.TraceSet
	pcfg predictor.Config

	// learn is the guarded model lifecycle of a learning session (see
	// lifecycle.go), nil everywhere else.
	learn *learner

	// health is the fail-open accounting shared by every handle (see
	// health.go).
	health health
}

// recordConfig is the session-level recording configuration assembled from
// RecordOptions.
type recordConfig struct {
	recOpts []recorder.Option
	ckpt    CheckpointPolicy
}

// RecordOption configures a recording (or online) session. Per-thread
// recorder behaviour is configured through WithRecorderOptions; options that
// need session scope — like crash-safe checkpointing, which aggregates every
// thread's state into one journal — have their own constructors.
type RecordOption func(*recordConfig)

// WithRecorderOptions applies recorder options (WithClock, WithMaxEvents,
// WithGrammarBudget, ...) to every thread's recorder.
func WithRecorderOptions(opts ...recorder.Option) RecordOption {
	return func(c *recordConfig) { c.recOpts = append(c.recOpts, opts...) }
}

// WithCheckpoint enables crash-safe journaled checkpoints of the recording
// (see CheckpointPolicy). A policy with an empty Dir is a no-op.
func WithCheckpoint(pol CheckpointPolicy) RecordOption {
	return func(c *recordConfig) { c.ckpt = pol }
}

// NewRecordSession starts a recording session.
func NewRecordSession(opts ...RecordOption) *Session {
	var cfg recordConfig
	for _, o := range opts {
		o(&cfg)
	}
	s := &Session{
		mode:    ModeRecord,
		reg:     events.NewRegistry(),
		recOpts: cfg.recOpts,
		ckptPol: cfg.ckpt,
	}
	s.threads.Store(&map[int32]*Thread{})
	if cfg.ckpt.enabled() {
		s.ckpt = newCheckpointer(s, cfg.ckpt)
	}
	return s
}

// NewPredictSession starts a prediction session against a reference trace
// set (typically loaded from a trace file).
func NewPredictSession(ref *model.TraceSet, cfg predictor.Config) (*Session, error) {
	if err := ref.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid reference trace: %w", err)
	}
	reg, err := events.FromNames(ref.Events)
	if err != nil {
		return nil, fmt.Errorf("core: invalid event table: %w", err)
	}
	s := &Session{
		mode: ModePredict,
		reg:  reg,
		ref:  ref,
		pcfg: cfg,
	}
	s.threads.Store(&map[int32]*Thread{})
	return s, nil
}

// Mode returns the session mode.
func (s *Session) Mode() Mode { return s.mode }

// Registry returns the shared event registry. Runtimes intern their key
// points here once and submit the resulting IDs.
func (s *Session) Registry() *events.Registry { return s.reg }

// Thread returns the handle for thread tid, creating it on first use. In
// predict mode a thread with no reference trace gets a nil predictor and
// behaves as permanently lost (no predictions).
//
// The steady-state lookup is lock-free: one atomic snapshot load and one map
// read, so concurrent dispatch from many runtime threads does not contend.
// Only the first lookup of a tid takes the session lock.
// pythia:hotpath — runtimes may call this at every key point.
func (s *Session) Thread(tid int32) *Thread {
	if t, ok := (*s.threads.Load())[tid]; ok {
		return t
	}
	return s.createThreadContained(tid)
}

// createThreadContained is createThread under panic containment: a failure
// while building the per-thread machinery (e.g. from a hostile reference
// trace) degrades the oracle and hands back an inert stub handle — never a
// nil pointer the host runtime would trip over, and never a panic.
func (s *Session) createThreadContained(tid int32) (t *Thread) {
	defer func() {
		if r := recover(); r != nil {
			s.health.notePanic("Session.Thread", r)
			t = &Thread{sess: s, tid: tid}
		}
	}()
	return s.createThread(tid)
}

// createThread installs the handle for a tid seen for the first time. Writers
// are serialized by mu and publish a fresh copy of the snapshot, so readers
// never observe a map mid-mutation.
func (s *Session) createThread(tid int32) *Thread {
	s.mu.Lock()
	defer s.mu.Unlock()
	old := *s.threads.Load()
	if t, ok := old[tid]; ok {
		// Lost the creation race to another goroutine.
		return t
	}
	t := &Thread{sess: s, tid: tid}
	switch s.mode {
	case ModeRecord:
		t.rec = recorder.New(s.recorderOptions(tid)...)
	case ModePredict:
		if tr := s.ref.Trace(tid); tr != nil {
			t.pred = predictor.New(tr, s.pcfg)
		}
	case ModeOnline:
		t.rec = recorder.New(s.recorderOptions(tid)...)
		// Learning sessions serve from the current generation, which may
		// already be ahead of the seed reference trace.
		t.learn = &threadLearn{l: s.learn}
		g := s.learn.serving.Load()
		t.learn.gen = g
		if tr := g.ts.Trace(tid); tr != nil {
			t.pred = predictor.New(tr, s.pcfg)
		}
	}
	next := make(map[int32]*Thread, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[tid] = t
	s.threads.Store(&next)
	return t
}

// recorderOptions assembles the per-thread recorder options for tid: the
// session-wide options plus, when checkpointing or online learning is on, a
// sink that feeds the thread's snapshots to the background machinery.
func (s *Session) recorderOptions(tid int32) []recorder.Option {
	if s.ckpt == nil && s.learn == nil {
		return s.recOpts
	}
	opts := make([]recorder.Option, 0, len(s.recOpts)+1)
	opts = append(opts, s.recOpts...)
	if s.ckpt != nil {
		c := s.ckpt
		opts = append(opts, recorder.WithCheckpointSink(s.ckptPol.snapEvery(),
			func(snap recorder.Checkpoint) { c.offer(tid, snap) }))
	} else {
		l := s.learn
		opts = append(opts, recorder.WithCheckpointSink(l.pol.EpochEvents,
			func(snap recorder.Checkpoint) { l.offer(tid, snap) }))
	}
	return opts
}

// FinishRecord ends a recording (or online) session, returning the trace
// set to be saved. Calling it on a prediction session, or on a session that
// already failed open after a contained panic, is a caller-visible error,
// never a crash. It also stops the background checkpointer (bounded wait),
// so the final Save never races a generation write.
func (s *Session) FinishRecord() (*model.TraceSet, error) {
	if s.mode != ModeRecord && s.mode != ModeOnline {
		return nil, fmt.Errorf("core: FinishRecord on a %s session", s.mode)
	}
	if s.ckpt != nil {
		s.ckpt.close()
	}
	if s.learn != nil {
		s.learn.close()
	}
	if s.Failed() {
		return nil, fmt.Errorf("core: FinishRecord on a degraded oracle (%s)", s.Health().Cause)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	threads := *s.threads.Load()
	ts := &model.TraceSet{
		Events:  s.reg.Names(),
		Threads: make(map[int32]*model.ThreadTrace, len(threads)),
	}
	for tid, t := range threads {
		ts.Threads[tid] = t.rec.Finish()
	}
	return ts, nil
}

// TotalEvents sums the events recorded so far across threads (record mode).
func (s *Session) TotalEvents() int64 {
	var n int64
	for _, t := range *s.threads.Load() {
		if t.rec != nil {
			n += t.rec.EventCount()
		}
	}
	return n
}

// Thread is the per-thread oracle handle. All methods must be called from a
// single goroutine at a time (one handle per runtime thread).
//
// Every exported method fails open: it runs under the session's panic
// containment (a recovered internal panic degrades the oracle instead of
// crashing the host runtime) and becomes a cheap no-op once the session is
// degraded.
// pythia:contained
type Thread struct {
	sess *Session
	tid  int32
	rec  *recorder.Recorder
	pred *predictor.Predictor

	// learn is the thread-side model lifecycle of a learning session (rival
	// scoring, generation adoption — see lifecycle.go), nil everywhere else.
	learn *threadLearn

	// notedTrunc / notedQuar track which per-thread degradations have
	// already been reported to the session health accounting (single
	// goroutine, like every other Thread field).
	notedTrunc bool
	notedQuar  bool
}

// TID returns the thread identifier.
func (t *Thread) TID() int32 { return t.tid }

// noteHealth folds per-thread degradation transitions into the session
// health after an event was submitted: a record budget breach (one-shot)
// and divergence-watchdog quarantine enter/leave.
// pythia:hotpath — two predictable branches per Submit in steady state.
func (t *Thread) noteHealth() {
	if t.rec != nil && !t.notedTrunc && t.rec.Truncated() {
		t.notedTrunc = true
		t.sess.health.noteBreach(t.tid, t.rec.TruncationCause())
	}
	if t.pred != nil {
		if q := t.pred.Quarantined(); q != t.notedQuar {
			t.notedQuar = q
			t.sess.health.noteQuarantine(t.tid, q)
		}
	}
}

// Submit notifies the oracle of an event: it is recorded in record mode and
// observed (tracked) in predict mode.
// pythia:hotpath — called at every runtime key point.
func (t *Thread) Submit(id events.ID) {
	if t.sess.Failed() {
		return
	}
	defer t.sess.Contain("Thread.Submit")
	t.apply(id)
}

// SubmitBatch is Submit for a run of events, in order: one fail-open check
// and one containment frame for the whole run, while recording, tracking
// and health accounting stay per event — so a budget breach or a quarantine
// transition is noted exactly where per-event Submit calls would note it. A
// contained panic drops the rest of the run, as it drops every later Submit.
// pythia:hotpath — the daemon feeds every drained ring chunk and every
// SubmitBatch frame through here.
func (t *Thread) SubmitBatch(ids []events.ID) {
	if t.sess.Failed() {
		return
	}
	defer t.sess.Contain("Thread.SubmitBatch")
	for _, id := range ids {
		t.apply(id)
	}
}

// apply records and tracks one event and folds the health transitions it
// caused; the exported Submit variants run it under containment.
func (t *Thread) apply(id events.ID) {
	if t.rec != nil {
		t.rec.Record(id)
	}
	if t.learn != nil {
		t.learn.observe(t, int32(id))
	} else if t.pred != nil {
		t.pred.Observe(int32(id))
	}
	t.noteHealth()
}

// SubmitAt is Submit with an explicit timestamp (virtual clocks). In
// predict mode the timestamp is ignored.
// pythia:hotpath — called at every key point of virtual-clock runtimes.
func (t *Thread) SubmitAt(id events.ID, now int64) {
	if t.sess.Failed() {
		return
	}
	defer t.sess.Contain("Thread.SubmitAt")
	if t.rec != nil {
		t.rec.RecordAt(id, now)
	}
	if t.learn != nil {
		t.learn.observe(t, int32(id))
	} else if t.pred != nil {
		t.pred.Observe(int32(id))
	}
	t.noteHealth()
}

// StartAtBeginning seeds prediction at the start of the reference trace.
func (t *Thread) StartAtBeginning() {
	if t.sess.Failed() {
		return
	}
	defer t.sess.Contain("Thread.StartAtBeginning")
	if t.pred != nil {
		t.pred.StartAtBeginning()
	}
}

// PredictAt predicts the event distance events from now (predict mode).
// ok is false when the oracle has no answer — including when it is
// degraded or the divergence watchdog holds the thread in quarantine.
func (t *Thread) PredictAt(distance int) (pr predictor.Prediction, ok bool) {
	if t.pred == nil || t.sess.Failed() {
		return predictor.Prediction{}, false
	}
	defer t.sess.Contain("Thread.PredictAt")
	return t.pred.PredictAt(distance)
}

// PredictSequence predicts the next n events (predict mode).
func (t *Thread) PredictSequence(n int) (preds []predictor.Prediction) {
	if t.pred == nil || t.sess.Failed() {
		return nil
	}
	defer t.sess.Contain("Thread.PredictSequence")
	return t.pred.PredictSequence(n)
}

// PredictDurationUntil predicts the time until the next occurrence of the
// event, looking at most maxDistance events ahead (predict mode).
func (t *Thread) PredictDurationUntil(id events.ID, maxDistance int) (pr predictor.Prediction, ok bool) {
	if t.pred == nil || t.sess.Failed() {
		return predictor.Prediction{}, false
	}
	defer t.sess.Contain("Thread.PredictDurationUntil")
	return t.pred.PredictDurationUntil(int32(id), maxDistance)
}

// Predictor exposes the underlying predictor (nil in record mode), for
// diagnostics.
func (t *Thread) Predictor() *predictor.Predictor { return t.pred }

// Recorder exposes the underlying recorder (nil in predict mode), for
// diagnostics.
func (t *Thread) Recorder() *recorder.Recorder { return t.rec }
