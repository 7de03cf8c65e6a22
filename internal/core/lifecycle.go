package core

// Guarded model lifecycle (this file): always-on learning with scored
// promotion and automatic rollback. A learning session collapses the
// paper's record-then-predict phases into one: every thread records a
// *shadow* grammar of the live Submit stream (the plain recorder hot path)
// while the *serving* model keeps answering predictions. Every EpochEvents
// events a thread hands the learner a snapshot of its shadow, and every
// thread scores a *rival* predictor — the frozen grammars of the latest
// snapshots, no timing model — against the serving predictor over the same
// observed events.
//
// Decisions sit on the event stream, not on a side thread: the thread whose
// 64-event fold completes a tumbling epoch judges it at once. When the
// rival out-predicts the serving model by a configured margin for several
// consecutive epochs — the same hysteresis discipline as the divergence
// watchdog — that thread promotes it: only then are the scored snapshots
// materialized (the timing replay) into a trace set, journaled as a new
// generation (commit before publish) and published through one atomic
// pointer, so threads pick it up with a single load on their next Submit.
// The previous generation is retained and keeps scoring for a watch window;
// if it out-predicts the promoted model, the learner rolls back — minting a
// fresh generation with the old model's content (generation numbers never
// go backwards), latching a Health cause and counter.
//
// Without a journal the deciding thread also publishes, so the session runs
// no goroutine and a one-thread session decides at the same event indexes
// on every run. With one, a one-shot goroutine per transition does the
// write, so journal trouble degrades health but never stalls Submit, and a
// crash at any instant recovers to the newest committed generation because
// nothing is ever published before it is durable.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/events"
	"repro/internal/model"
	"repro/internal/predictor"
	"repro/internal/recorder"
	"repro/internal/tracefile"
)

// DefaultLearnEpochEvents is the scoring epoch used when a LearnPolicy does
// not choose one: long enough for hit-rates to be meaningful, short enough
// that a drifted workload is adopted within thousands, not millions, of
// events.
const DefaultLearnEpochEvents = 512

// learnFlushEvents is how often a thread folds its local epoch counters
// into the session aggregate. It bounds the staleness of the aggregate, not
// the epoch length; the fold is a short mutex hold well off the per-event
// hot path.
const learnFlushEvents = 64

// LearnPolicy configures the guarded model lifecycle of a learning session.
// The zero value selects defaults for every knob and keeps generations in
// memory only.
type LearnPolicy struct {
	// EpochEvents is the tumbling scoring epoch in observed events: both
	// models' hit counts over one epoch are compared to drive promotion and
	// rollback. Zero selects DefaultLearnEpochEvents.
	EpochEvents int64
	// PromoteEpochs is how many consecutive epochs the shadow candidate
	// must win before it is promoted (default 3) — the hysteresis that
	// keeps a noisy workload from flapping models.
	PromoteEpochs int
	// PromoteMarginPct is the margin, in percent of the epoch's events, by
	// which the rival's hit count must exceed the serving model's to count
	// as a win (default 5). The same margin, in the other direction,
	// triggers a rollback during the post-promotion watch window.
	PromoteMarginPct int
	// WatchEpochs is the post-promotion watch window: for this many epochs
	// the previous generation keeps scoring against the promoted one, and a
	// regression rolls back automatically (default 3).
	WatchEpochs int
	// CooldownEpochs is how many epochs after a rollback the lifecycle
	// refuses to promote again (default 8): a candidate that just lost in
	// production must re-prove itself on fresh evidence.
	CooldownEpochs int
	// Dir, when non-empty, journals every generation (the initial serving
	// model, promotions, rollbacks) as crash-safe checkpoint files under
	// this directory; tracefile.Recover after a crash lands on the newest
	// committed generation. Empty keeps generations in memory only.
	Dir string
	// Keep is the number of journaled generations retained
	// (tracefile.DefaultKeep when zero or negative). Ignored without Dir.
	Keep int
}

// withDefaults fills the zero knobs.
func (p LearnPolicy) withDefaults() LearnPolicy {
	if p.EpochEvents <= 0 {
		p.EpochEvents = DefaultLearnEpochEvents
	}
	if p.PromoteEpochs <= 0 {
		p.PromoteEpochs = 3
	}
	if p.PromoteMarginPct <= 0 {
		p.PromoteMarginPct = 5
	}
	if p.WatchEpochs <= 0 {
		p.WatchEpochs = 3
	}
	if p.CooldownEpochs <= 0 {
		p.CooldownEpochs = 8
	}
	return p
}

// lifecycleAction is what one scored epoch asks the learner to do.
type lifecycleAction int

const (
	actNone lifecycleAction = iota
	actPromote
	actRollback
)

// lifecycle is the pure promotion/rollback state machine — no clocks, no
// goroutines, no I/O — so tests and the fuzzer can drive arbitrary epoch
// and forced-transition interleavings against it directly.
//
// Two states: learning (the rival is the shadow candidate; enough winning
// epochs in a row promote it) and watching (the rival is the previous
// generation; one winning epoch rolls the promotion back). A rollback
// starts a cooldown during which no promotion is considered.
type lifecycle struct {
	pol       LearnPolicy
	watching  bool
	streak    int
	watchLeft int
	cooldown  int
}

// newLifecycle returns the machine in the learning state.
func newLifecycle(pol LearnPolicy) lifecycle {
	return lifecycle{pol: pol.withDefaults()}
}

// observeEpoch folds one completed scoring epoch — the serving model's and
// the rival's hit counts over n events — and returns the transition it
// mandates. The rival "beats" the serving model when its hit count exceeds
// the serving one by at least PromoteMarginPct percent of the epoch.
func (m *lifecycle) observeEpoch(servingHits, rivalHits, n int64) lifecycleAction {
	if n <= 0 {
		return actNone
	}
	beats := (rivalHits-servingHits)*100 >= int64(m.pol.PromoteMarginPct)*n
	if m.watching {
		if beats {
			// The previous generation out-predicts the promoted model:
			// the promotion regressed. Roll back and cool down.
			m.watching = false
			m.streak = 0
			m.cooldown = m.pol.CooldownEpochs
			return actRollback
		}
		if m.watchLeft--; m.watchLeft <= 0 {
			m.watching = false
		}
		return actNone
	}
	if m.cooldown > 0 {
		m.cooldown--
		m.streak = 0
		return actNone
	}
	if !beats {
		m.streak = 0
		return actNone
	}
	if m.streak++; m.streak < m.pol.PromoteEpochs {
		return actNone
	}
	m.streak = 0
	m.watching = true
	m.watchLeft = m.pol.WatchEpochs
	return actPromote
}

// forcePromote moves the machine into the watch state as if a scored
// promotion had happened (operator-forced promotions are watched — and
// rolled back — exactly like earned ones).
func (m *lifecycle) forcePromote() {
	m.streak = 0
	m.cooldown = 0
	m.watching = true
	m.watchLeft = m.pol.WatchEpochs
}

// forceRollback moves the machine out of the watch state with the rollback
// cooldown armed.
func (m *lifecycle) forceRollback() {
	m.watching = false
	m.streak = 0
	m.cooldown = m.pol.CooldownEpochs
}

// generation is one immutable serving model: a trace set plus its lineage.
// Threads hold the pointer they built their predictor from and detect a
// swap by pointer identity — one atomic load per Submit.
type generation struct {
	num    uint64
	parent uint64
	kind   model.ProvKind
	ts     *model.TraceSet
}

// lineage is the pure generation ledger: which generation serves, which
// one a rollback would restore, and the next number to mint. Numbers are
// strictly monotonic — a rollback re-mints the old content under a fresh
// number rather than reusing the old one, so journal recovery can always
// trust "newest committed wins".
type lineage struct {
	next     uint64
	serving  *generation
	previous *generation
}

// newLineage seeds the ledger with the initial serving generation.
func newLineage(seed *model.TraceSet, num uint64) lineage {
	return lineage{
		next:    num + 1,
		serving: &generation{num: num, kind: model.ProvCheckpoint, ts: seed},
	}
}

// promote mints generation num from the candidate trace set. The prior
// serving generation becomes the rollback target.
func (l *lineage) promote(num uint64, ts *model.TraceSet) (*generation, error) {
	if num <= l.serving.num {
		return nil, fmt.Errorf("core: promotion would mint generation %d at or below serving %d", num, l.serving.num)
	}
	g := &generation{num: num, parent: l.serving.num, kind: model.ProvPromotion, ts: ts}
	l.previous = l.serving
	l.serving = g
	if num >= l.next {
		l.next = num + 1
	}
	return g, nil
}

// rollback mints generation num carrying the previous generation's content.
// Only one step back is possible: after a rollback the restored model has
// no predecessor until the next promotion.
func (l *lineage) rollback(num uint64) (*generation, error) {
	if l.previous == nil {
		return nil, fmt.Errorf("core: no previous generation to roll back to")
	}
	if num <= l.serving.num {
		return nil, fmt.Errorf("core: rollback would mint generation %d at or below serving %d", num, l.serving.num)
	}
	g := &generation{num: num, parent: l.serving.num, kind: model.ProvRollback, ts: l.previous.ts}
	l.serving = g
	l.previous = nil
	if num >= l.next {
		l.next = num + 1
	}
	return g, nil
}

// retained lists the generation numbers the ledger currently holds,
// serving first.
func (l *lineage) retained() []uint64 {
	out := []uint64{l.serving.num}
	if l.previous != nil {
		out = append(out, l.previous.num)
	}
	return out
}

// rivalSpec is the model threads currently score against the serving one:
// while learning, the frozen grammars of the latest shadow snapshots (snaps
// holds them for the promotion that may follow); while watching a
// promotion, the previous generation (snaps nil). Scoring reads only
// distance-1 hits, so a shadow rival carries no timing model. Threads
// detect a change by pointer identity and rebuild their rival predictor at
// the next event.
type rivalSpec struct {
	ts    *model.TraceSet
	snaps map[int32]recorder.Checkpoint
}

// ModelInfo is a snapshot of a session's model lifecycle, for operators and
// tests (the wire ModelInfo op serves exactly this).
type ModelInfo struct {
	// Enabled reports whether online learning is active on this session.
	Enabled bool
	// State is "frozen" (no learning), "learning" (scoring the shadow
	// candidate) or "watching" (post-promotion watch window).
	State string
	// ServingGeneration is the generation number of the serving model.
	ServingGeneration uint64
	// Promotions, Rollbacks and ShadowEpochs are the lifetime counters:
	// models promoted, promotions rolled back, scoring epochs judged.
	Promotions   uint64
	Rollbacks    uint64
	ShadowEpochs uint64
	// Retained lists the generation numbers held in memory, serving first.
	Retained []uint64
}

// learner owns one learning session's model lifecycle: the latest shadow
// snapshots, the epoch score aggregate, the lineage ledger and the
// optional generation journal. It has no goroutine of its own: submitting
// threads offer snapshots and judge epochs, and only a journal write runs
// elsewhere (see startLocked).
type learner struct {
	sess *Session
	pol  LearnPolicy
	j    *tracefile.Journal // nil in memory-only mode (or after open failure)

	// serving and rival are the published models; threads read both with
	// one atomic load per Submit and act only on pointer change. Both are
	// stored under opMu.
	serving atomic.Pointer[generation]
	rival   atomic.Pointer[rivalSpec]

	// opMu guards everything below: the snapshots, the score aggregate, the
	// machines and the transition in flight. It is never held across a
	// journal write, and across a promotion's materialization only by the
	// deciding thread of a memory-only session.
	opMu  sync.Mutex
	snaps map[int32]recorder.Checkpoint
	fresh bool // a snapshot arrived since the shadow rival was published

	aggServ  int64
	aggRival int64
	aggN     int64
	epochs   uint64

	lin lineage
	sm  lifecycle

	// busy marks a transition between plan and publish (a journal write in
	// flight); epochs completing meanwhile are dropped, and forced
	// transitions wait on idle. closed stops judging; wg joins the commit
	// goroutines on close.
	busy   bool
	closed bool
	idle   sync.Cond
	wg     sync.WaitGroup
}

// newLearner seeds the lifecycle with ref as the initial serving
// generation. A journal that cannot be opened (or seeded) degrades health
// and falls back to memory-only learning — the fail-open contract;
// learning itself never depends on the disk.
func newLearner(s *Session, pol LearnPolicy, ref *model.TraceSet) *learner {
	l := &learner{sess: s, pol: pol.withDefaults(), snaps: make(map[int32]recorder.Checkpoint)}
	l.idle.L = &l.opMu
	l.sm = newLifecycle(l.pol)
	seedNum := uint64(1)
	if l.pol.Dir != "" {
		j, err := tracefile.OpenJournal(l.pol.Dir, l.pol.Keep)
		if err != nil {
			s.health.noteCheckpointFailure(err)
		} else {
			// Journal the seed so a crash before the first promotion still
			// recovers to a consistent generation. A shallow copy keeps the
			// caller's trace set free of our provenance stamp.
			seed := *ref
			seed.Provenance = &model.Provenance{UnixNanos: time.Now().UnixNano()}
			if gen, werr := j.WriteGeneration(&seed); werr != nil {
				s.health.noteCheckpointFailure(werr)
			} else {
				l.j = j
				seedNum = gen
			}
		}
	}
	l.lin = newLineage(ref, seedNum)
	l.serving.Store(l.lin.serving)
	return l
}

// offer records the latest shadow snapshot of one thread; the very first
// one becomes the first rival. Called from recording threads at their
// snapshot cadence (every EpochEvents events).
func (l *learner) offer(tid int32, snap recorder.Checkpoint) {
	l.opMu.Lock()
	defer l.opMu.Unlock()
	l.snaps[tid] = snap
	l.fresh = true
	if l.rival.Load() == nil {
		l.publishShadowLocked()
	}
}

// score folds one thread's 64-event segment into the aggregate, provided it
// was measured against the currently published rival and no transition is
// in flight. The fold that completes an epoch judges it on the spot: a
// promotion or rollback starts, or — while learning — the latest snapshots
// become the next rival.
func (l *learner) score(spec *rivalSpec, servHits, rivalHits, n int64) {
	l.opMu.Lock()
	defer l.opMu.Unlock()
	if spec != l.rival.Load() || l.busy || l.closed {
		return
	}
	l.aggServ += servHits
	l.aggRival += rivalHits
	l.aggN += n
	if l.aggN < l.pol.EpochEvents {
		return
	}
	servH, rivH, n := l.aggServ, l.aggRival, l.aggN
	l.aggServ, l.aggRival, l.aggN = 0, 0, 0
	l.epochs++
	switch l.sm.observeEpoch(servH, rivH, n) {
	case actPromote:
		// Promote exactly what was scored: the published rival's snapshots.
		l.startLocked(&change{kind: model.ProvPromotion, snaps: spec.snaps, parent: l.lin.serving.num})
	case actRollback:
		l.startLocked(&change{kind: model.ProvRollback, ts: l.lin.previous.ts, parent: l.lin.serving.num,
			cause: fmt.Sprintf("model rollback: generation %d regressed against generation %d (epoch hits %d vs %d over %d events)",
				l.lin.serving.num, l.lin.previous.num, servH, rivH, n)})
	default:
		// Refresh the candidate only at epoch boundaries: publishing a rival
		// resets the aggregate, so refreshing on every snapshot would starve
		// the epoch clock whenever the snapshot cadence divides the epoch.
		if !l.sm.watching && (l.fresh || l.rival.Load().snaps == nil) {
			l.publishShadowLocked()
		}
	}
}

// publishShadowLocked publishes the latest snapshots as the rival.
func (l *learner) publishShadowLocked() {
	snaps := l.copySnapsLocked()
	ts := &model.TraceSet{Threads: make(map[int32]*model.ThreadTrace, len(snaps))}
	for tid, snap := range snaps {
		ts.Threads[tid] = &model.ThreadTrace{Grammar: snap.Grammar}
	}
	l.fresh = false
	l.publishRival(&rivalSpec{ts: ts, snaps: snaps})
}

// copySnapsLocked copies the latest snapshots, so a rival or a promotion
// keeps exactly the set it was built from.
func (l *learner) copySnapsLocked() map[int32]recorder.Checkpoint {
	out := make(map[int32]recorder.Checkpoint, len(l.snaps))
	for tid, snap := range l.snaps {
		out[tid] = snap
	}
	return out
}

// publishRival installs a new scoring target and resets the aggregate —
// scores measured against different rivals must never be mixed.
func (l *learner) publishRival(spec *rivalSpec) {
	l.aggServ, l.aggRival, l.aggN = 0, 0, 0
	l.rival.Store(spec)
}

// change is one promotion or rollback: planned under opMu, committed
// (materialized and journaled) by commit, then published by publishLocked.
type change struct {
	kind   model.ProvKind
	snaps  map[int32]recorder.Checkpoint // promotion: the snapshots to materialize
	ts     *model.TraceSet               // the content to serve
	parent uint64                        // the serving generation at plan time
	num    uint64                        // the journaled generation number
	cause  string                        // rollback: the Health cause
}

// startLocked carries out a scored transition. Without a journal the
// deciding thread commits and publishes it at once; with one, a one-shot
// goroutine writes it so Submit never waits on the disk. Caller holds opMu.
func (l *learner) startLocked(c *change) {
	if l.j == nil {
		l.finishScoredLocked(c, l.commit(c))
		return
	}
	l.busy = true
	l.wg.Add(1)
	go l.commitAsync(c)
}

// commitAsync is the one-shot commit goroutine of a journaled scored
// transition, joined by close.
func (l *learner) commitAsync(c *change) {
	defer l.wg.Done()
	err := l.commit(c)
	l.opMu.Lock()
	defer l.opMu.Unlock()
	l.busy = false
	l.idle.Broadcast()
	l.finishScoredLocked(c, err)
}

// finishScoredLocked publishes a committed scored transition. A promotion
// that failed also leaves the watch state observeEpoch entered: there is
// no swap to watch. Caller holds opMu.
func (l *learner) finishScoredLocked(c *change, err error) {
	if _, err := l.publishLocked(c, err); err != nil && c.kind == model.ProvPromotion {
		l.sm.forceRollback()
	}
}

// commit materializes a promotion's snapshots — the timing replay, paid
// once per promotion — and journals the change. It runs without opMu
// except on the deciding thread of a memory-only session, which has no
// write to wait for; busy keeps every other transition out meanwhile.
func (l *learner) commit(c *change) error {
	if c.snaps != nil {
		threads := make(map[int32]*model.ThreadTrace, len(c.snaps))
		for tid, snap := range c.snaps {
			threads[tid] = snap.Materialize()
		}
		// The registry read happens after the snapshots were taken, so the
		// descriptor table is a superset of the ids any grammar uses.
		c.ts = &model.TraceSet{Events: l.sess.reg.Names(), Threads: threads}
	}
	if l.j == nil {
		return nil
	}
	// Stamp lineage on a shallow copy: the content trace set may be shared
	// with a still-live generation record.
	out := *c.ts
	out.Provenance = &model.Provenance{Kind: c.kind, Parent: c.parent, UnixNanos: time.Now().UnixNano()}
	var err error
	c.num, err = l.j.WriteGeneration(&out)
	return err
}

// publishLocked mints a committed change in the ledger and publishes it:
// a promotion pins the rival to the previous generation for the watch
// window, a rollback returns to scoring the shadow. On a failed commit
// nothing is published and the serving model is unchanged (fail-open: a
// broken disk must not take predictions down), but the failure — and a
// regression left serving — is surfaced. Caller holds opMu.
func (l *learner) publishLocked(c *change, err error) (*generation, error) {
	var g *generation
	if err == nil {
		if l.j == nil {
			c.num = l.lin.next
		}
		if c.kind == model.ProvPromotion {
			g, err = l.lin.promote(c.num, c.ts)
		} else {
			g, err = l.lin.rollback(c.num)
		}
	}
	if err != nil {
		l.sess.health.noteCheckpointFailure(err)
		if c.kind == model.ProvRollback {
			l.sess.health.noteRollback(c.cause + " (rollback journal write failed)")
		}
		return nil, err
	}
	l.serving.Store(g)
	if c.kind == model.ProvPromotion {
		l.sess.health.notePromotion()
		l.sm.forcePromote()
		l.publishRival(&rivalSpec{ts: l.lin.previous.ts})
	} else {
		l.sess.health.noteRollback(c.cause)
		l.sm.forceRollback()
		l.publishShadowLocked()
	}
	return g, nil
}

// force runs an operator transition synchronously on its caller: it waits
// for a transition in flight, plans under opMu, commits without it, and
// publishes. A forced promotion is watched — and rolled back — exactly
// like an earned one.
func (l *learner) force(plan func() (*change, error)) (uint64, error) {
	l.opMu.Lock()
	for l.busy {
		l.idle.Wait()
	}
	c, err := plan()
	if err != nil {
		l.opMu.Unlock()
		return 0, err
	}
	l.busy = true
	l.opMu.Unlock()
	err = l.commit(c)
	l.opMu.Lock()
	defer l.opMu.Unlock()
	l.busy = false
	l.idle.Broadcast()
	g, err := l.publishLocked(c, err)
	if err != nil {
		return 0, err
	}
	return g.num, nil
}

// forcePromote promotes the latest shadow snapshots unconditionally (the
// Promote wire op and fault-injection harnesses).
func (l *learner) forcePromote() (uint64, error) {
	return l.force(func() (*change, error) {
		if len(l.snaps) == 0 {
			return nil, fmt.Errorf("core: no shadow candidate to promote yet")
		}
		return &change{kind: model.ProvPromotion, snaps: l.copySnapsLocked(), parent: l.lin.serving.num}, nil
	})
}

// forceRollback rolls back to the previous generation unconditionally.
func (l *learner) forceRollback() (uint64, error) {
	return l.force(func() (*change, error) {
		prev := l.lin.previous
		if prev == nil {
			return nil, fmt.Errorf("core: no previous generation to roll back to")
		}
		return &change{kind: model.ProvRollback, ts: prev.ts, parent: l.lin.serving.num,
			cause: fmt.Sprintf("model rollback: generation %d rolled back to generation %d content by operator",
				l.lin.serving.num, prev.num)}, nil
	})
}

// modelInfo snapshots the lifecycle.
func (l *learner) modelInfo() ModelInfo {
	l.opMu.Lock()
	defer l.opMu.Unlock()
	h := l.sess.Health()
	mi := ModelInfo{
		Enabled:           true,
		State:             "learning",
		ServingGeneration: l.lin.serving.num,
		Promotions:        uint64(h.Promotions),
		Rollbacks:         uint64(h.Rollbacks),
		ShadowEpochs:      l.epochs,
		Retained:          l.lin.retained(),
	}
	// A scored promotion whose journal write is pending has moved the
	// machine but published nothing yet: until the rival is the previous
	// generation, the session still reads learning.
	if l.sm.watching && l.rival.Load().snaps == nil {
		mi.State = "watching"
	}
	return mi
}

// close stops judging and joins any commit goroutine still writing.
// Idempotent; forced transitions keep working afterwards.
func (l *learner) close() {
	l.opMu.Lock()
	l.closed = true
	l.opMu.Unlock()
	l.wg.Wait()
}

// NewLearningSession starts an always-on session: predictions are served
// from ref (the initial generation) while every thread's live stream is
// re-recorded as a shadow model under the guarded lifecycle in pol.
// RecordOptions configure the shadow recorders (budgets, clocks);
// WithCheckpoint is rejected — a learning session's crash safety is the
// generation journal (LearnPolicy.Dir).
func NewLearningSession(ref *model.TraceSet, cfg predictor.Config, pol LearnPolicy, opts ...RecordOption) (*Session, error) {
	if err := ref.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid reference trace: %w", err)
	}
	reg, err := events.FromNames(ref.Events)
	if err != nil {
		return nil, fmt.Errorf("core: invalid event table: %w", err)
	}
	var rc recordConfig
	for _, o := range opts {
		o(&rc)
	}
	if rc.ckpt.enabled() {
		return nil, fmt.Errorf("core: learning sessions journal generations through LearnPolicy.Dir, not WithCheckpoint")
	}
	s := &Session{
		mode:    ModeOnline,
		reg:     reg,
		ref:     ref,
		pcfg:    cfg,
		recOpts: rc.recOpts,
	}
	s.threads.Store(&map[int32]*Thread{})
	s.learn = newLearner(s, pol, ref)
	return s, nil
}

// ModelInfo returns a snapshot of the session's model lifecycle. Sessions
// without online learning report Enabled=false and the "frozen" state.
func (s *Session) ModelInfo() ModelInfo {
	if s.learn == nil {
		return ModelInfo{State: "frozen"}
	}
	return s.learn.modelInfo()
}

// Promote forces an immediate promotion of the current shadow candidate,
// returning the minted generation number. It exists for operators and
// tests; steady-state promotions are scored. The promoted model enters the
// normal watch window, so a bad forced promotion still rolls back.
func (s *Session) Promote() (uint64, error) {
	if s.learn == nil {
		return 0, fmt.Errorf("core: Promote on a session without online learning")
	}
	return s.learn.forcePromote()
}

// Rollback forces an immediate rollback to the previous generation,
// returning the minted generation number.
func (s *Session) Rollback() (uint64, error) {
	if s.learn == nil {
		return 0, fmt.Errorf("core: Rollback on a session without online learning")
	}
	return s.learn.forceRollback()
}

// Close releases the session's background machinery (a learner's pending
// journal write and the checkpointer, when present). Idempotent; sessions
// without either need not call it.
func (s *Session) Close() {
	if s.learn != nil {
		s.learn.close()
	}
	if s.ckpt != nil {
		s.ckpt.close()
	}
}

// threadLearn is the per-thread half of the lifecycle: the rival predictor
// and the epoch scoring segment. Like every other Thread field it is owned
// by the submitting goroutine.
type threadLearn struct {
	l     *learner
	gen   *generation
	spec  *rivalSpec
	rival *predictor.Predictor

	servHits  int64
	rivalHits int64
	n         int64
}

// rivalConfig is the serving predictor config with the watchdog disabled:
// a scoring model must keep reporting raw hit counts while diverged — that
// divergence is exactly the signal being measured.
func rivalConfig(cfg predictor.Config) predictor.Config {
	cfg.WatchdogWindow = -1
	return cfg
}

// observe feeds one event to both models and scores them. The generation
// and rival checks are one atomic load + pointer compare each; rebuilds
// happen only on an actual swap (promotions, rollbacks, fresh candidates).
// pythia:hotpath — called per Submit on learning sessions.
func (tl *threadLearn) observe(t *Thread, id int32) {
	if g := tl.l.serving.Load(); g != tl.gen {
		tl.adoptGeneration(t, g)
	}
	if spec := tl.l.rival.Load(); spec != tl.spec {
		tl.adoptRival(t, spec)
	}
	if t.pred != nil {
		f0 := t.pred.Stats().Followed
		t.pred.Observe(id)
		if tl.rival != nil && t.pred.Stats().Followed > f0 {
			tl.servHits++
		}
	}
	if tl.rival == nil {
		return
	}
	f0 := tl.rival.Stats().Followed
	tl.rival.Observe(id)
	if tl.rival.Stats().Followed > f0 {
		tl.rivalHits++
	}
	if tl.n++; tl.n >= learnFlushEvents {
		tl.flush()
	}
}

// flush folds the local scoring segment into the session aggregate.
func (tl *threadLearn) flush() {
	if tl.n > 0 {
		tl.l.score(tl.spec, tl.servHits, tl.rivalHits, tl.n)
	}
	tl.servHits, tl.rivalHits, tl.n = 0, 0, 0
}

// adoptGeneration is the thread-side half of the warm handoff: rebuild the
// serving predictor from the newly published generation. A generation that
// does not cover this thread leaves the current predictor serving — the
// next promotion that includes the thread picks it up.
func (tl *threadLearn) adoptGeneration(t *Thread, g *generation) {
	tl.gen = g
	if tr := g.ts.Trace(t.tid); tr != nil {
		t.pred = predictor.New(tr, t.sess.pcfg)
	}
	// Partial scores straddling a model swap are meaningless; drop them.
	tl.servHits, tl.rivalHits, tl.n = 0, 0, 0
}

// adoptRival rebuilds the scoring predictor against the newly published
// rival. A rival that does not cover this thread suspends scoring on it.
func (tl *threadLearn) adoptRival(t *Thread, spec *rivalSpec) {
	tl.spec = spec
	tl.rival = nil
	if spec != nil && spec.ts != nil {
		if tr := spec.ts.Trace(t.tid); tr != nil {
			tl.rival = predictor.New(tr, rivalConfig(t.sess.pcfg))
		}
	}
	tl.servHits, tl.rivalHits, tl.n = 0, 0, 0
}
