package core

// Guarded model lifecycle (this file): always-on learning with scored
// promotion and automatic rollback. A learning session collapses the
// paper's record-then-predict phases into one: every thread records a
// *shadow* grammar of the live Submit stream (the plain recorder hot path)
// while the *serving* model keeps answering predictions. A background
// manager goroutine periodically materializes the shadow into a candidate
// trace set, and every thread scores a *rival* predictor built from that
// candidate against the serving predictor over the same observed events.
// When the rival out-predicts the serving model by a configured margin for
// several consecutive tumbling epochs — the same hysteresis discipline as
// the divergence watchdog — the manager promotes it: the candidate is
// journaled as a new generation (commit before publish) and then published
// through one atomic pointer, so threads pick it up with a single load on
// their next Submit and rebuild their predictor off the hot path. The
// previous generation is retained and keeps scoring for a watch window; if
// it out-predicts the promoted model, the manager rolls back — minting a
// fresh generation with the old model's content (generation numbers never
// go backwards), latching a Health cause and counter.
//
// Failure discipline matches the checkpointer: journal trouble degrades
// health but never stalls Submit, the manager goroutine is quit-signalled
// and joined on Close, and a crash at any instant recovers to the newest
// committed generation because nothing is ever published before it is
// durable.

import (
	"fmt"
	"runtime"
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

// lifecycleAction is what one scored epoch asks the manager to do.
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
// the freshest shadow candidate while learning, the previous generation
// while watching a promotion. Threads detect a change by pointer identity
// and rebuild their rival predictor at the next event.
type rivalSpec struct {
	ts *model.TraceSet
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

// learner owns one learning session's model lifecycle: the shadow snapshot
// sink, the epoch score aggregate, the lineage ledger, the optional
// generation journal, and the background manager goroutine that judges
// epochs and performs promotions and rollbacks.
type learner struct {
	snapCollector // the shadow snapshots; collects run under opMu

	sess *Session
	pol  LearnPolicy
	j    *tracefile.Journal // nil in memory-only mode (or after open failure)

	// serving and rival are the published models; threads read both with
	// one atomic load per Submit and act only on pointer change.
	serving atomic.Pointer[generation]
	rival   atomic.Pointer[rivalSpec]

	// aggMu guards the epoch score aggregate. Threads write here at their
	// flush cadence.
	aggMu    sync.Mutex
	aggSpec  *rivalSpec
	aggServ  int64
	aggRival int64
	aggN     int64

	// opMu serializes lifecycle transitions and journal writes: the
	// manager goroutine and the forced Promote/Rollback entry points.
	opMu sync.Mutex
	lin  lineage
	sm   lifecycle

	epochs atomic.Uint64

	notify    chan struct{}
	stop      chan struct{}
	done      chan struct{}
	closeOnce sync.Once
}

// newLearner seeds the lifecycle with ref as the initial serving generation
// and starts the manager goroutine. A journal that cannot be opened (or
// seeded) degrades health and falls back to memory-only learning — the
// fail-open contract; learning itself never depends on the disk.
func newLearner(s *Session, pol LearnPolicy, ref *model.TraceSet) *learner {
	l := &learner{
		snapCollector: newSnapCollector(s.reg),
		sess:          s,
		pol:           pol.withDefaults(),
		notify:        make(chan struct{}, 1),
		stop:          make(chan struct{}),
		done:          make(chan struct{}),
	}
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
	go l.run()
	return l
}

// offer records the latest shadow snapshot of one thread and nudges the
// manager, donating the scheduler quantum (see score: before the first
// candidate is published there are no score calls, so the first publish
// depends on this yield on single-P hosts). Called from recording threads
// at their snapshot cadence.
func (l *learner) offer(tid int32, snap recorder.Checkpoint) {
	l.snapCollector.offer(tid, snap)
	l.nudge()
	runtime.Gosched()
}

// nudge wakes the manager goroutine without blocking.
func (l *learner) nudge() {
	select {
	case l.notify <- struct{}{}:
	default:
	}
}

// score folds one thread's epoch segment into the aggregate, provided it
// was measured against the currently published rival. It reports a
// completed epoch by nudging the manager — and donates the scheduler
// quantum: the manager is wake-driven, and on a GOMAXPROCS=1 host a busy
// submit loop can otherwise run for a full preemption quantum (~10ms of
// events) before the judge ever gets scheduled, smearing many epochs into
// one. One Gosched per completed epoch is far off the hot path.
func (l *learner) score(spec *rivalSpec, servHits, rivalHits, n int64) {
	l.aggMu.Lock()
	if spec == l.aggSpec {
		l.aggServ += servHits
		l.aggRival += rivalHits
		l.aggN += n
	}
	full := l.aggN >= l.pol.EpochEvents
	l.aggMu.Unlock()
	if full {
		l.nudge()
		runtime.Gosched()
	}
}

// run is the manager loop: quit-signalled through stop and joined through
// done (see close), following the checkpointer's lifecycle discipline.
func (l *learner) run() {
	defer close(l.done)
	for {
		select {
		case <-l.stop:
			return
		case <-l.notify:
		}
		l.step()
	}
}

// step judges a completed epoch (possibly promoting or rolling back) and
// refreshes the published candidate. All transitions run under opMu so
// forced operator transitions never interleave with scored ones.
func (l *learner) step() {
	l.opMu.Lock()
	defer l.opMu.Unlock()

	l.aggMu.Lock()
	servH, rivH, n := l.aggServ, l.aggRival, l.aggN
	judge := n >= l.pol.EpochEvents
	if judge {
		l.aggServ, l.aggRival, l.aggN = 0, 0, 0
	}
	l.aggMu.Unlock()

	if judge {
		l.epochs.Add(1)
		switch l.sm.observeEpoch(servH, rivH, n) {
		case actPromote:
			// Promote exactly what was scored: the published rival.
			if spec := l.rival.Load(); spec != nil && spec.ts != nil {
				if _, err := l.promoteLocked(spec.ts); err != nil {
					l.sess.health.noteCheckpointFailure(err)
					// The promotion did not happen; leave the machine in
					// the learning state rather than watching a swap that
					// never occurred.
					l.sm.forceRollback()
				}
			}
		case actRollback:
			if _, err := l.rollbackLocked(fmt.Sprintf(
				"model rollback: generation %d regressed against generation %d (epoch hits %d vs %d over %d events)",
				l.lin.serving.num, l.lin.previous.num, servH, rivH, n)); err != nil {
				// Already latched in health by rollbackLocked: the regressed
				// model keeps serving (fail-open) and the cause names the
				// failed journal write.
			}
		}
	}

	// While learning, keep the scored candidate fresh; while watching, the
	// rival stays pinned to the previous generation. Refresh only at epoch
	// boundaries (or to publish the very first candidate): publishing a new
	// rival resets the score aggregate, so refreshing on every snapshot
	// would starve the epoch clock whenever the snapshot cadence divides
	// the epoch length.
	if !l.sm.watching && (judge || l.rival.Load() == nil) {
		if cand := l.collect(false); cand != nil {
			l.publishRival(cand)
		}
	}
}

// publishRival installs a new scoring target and resets the aggregate —
// scores measured against different rivals must never be mixed.
func (l *learner) publishRival(ts *model.TraceSet) {
	spec := &rivalSpec{ts: ts}
	l.aggMu.Lock()
	l.aggSpec = spec
	l.aggServ, l.aggRival, l.aggN = 0, 0, 0
	l.aggMu.Unlock()
	l.rival.Store(spec)
}

// mintLocked journals (commit) and only then publishes a new serving
// generation. On a journal write failure nothing is published and the
// serving model is unchanged. Caller holds opMu.
func (l *learner) mintLocked(kind model.ProvKind, mint func(num uint64) (*generation, error), ts *model.TraceSet) (*generation, error) {
	num := l.lin.next
	if l.j != nil {
		num = l.j.NextGeneration()
		// Stamp lineage on a shallow copy: the content trace set may be
		// shared with a still-live generation record.
		out := *ts
		out.Provenance = &model.Provenance{
			Kind:      kind,
			Parent:    l.lin.serving.num,
			UnixNanos: time.Now().UnixNano(),
		}
		if _, err := l.j.WriteGeneration(&out); err != nil {
			return nil, err
		}
	}
	return mint(num)
}

// promoteLocked performs the warm handoff: journal the candidate, update
// the ledger, publish the new serving generation, and pin the rival to the
// previous generation for the watch window. Caller holds opMu.
func (l *learner) promoteLocked(cand *model.TraceSet) (*generation, error) {
	g, err := l.mintLocked(model.ProvPromotion, func(num uint64) (*generation, error) {
		return l.lin.promote(num, cand)
	}, cand)
	if err != nil {
		return nil, err
	}
	l.serving.Store(g)
	l.sess.health.notePromotion()
	// The previous generation is the watchdog now: it keeps scoring, and a
	// win within the watch window rolls the promotion back.
	if prev := l.lin.previous; prev != nil {
		l.publishRival(prev.ts)
	}
	return g, nil
}

// rollbackLocked re-mints the previous generation as the serving model and
// latches the regression in Health. Caller holds opMu; the ledger must
// hold a previous generation.
func (l *learner) rollbackLocked(cause string) (*generation, error) {
	prev := l.lin.previous
	if prev == nil {
		return nil, fmt.Errorf("core: no previous generation to roll back to")
	}
	g, err := l.mintLocked(model.ProvRollback, func(num uint64) (*generation, error) {
		return l.lin.rollback(num)
	}, prev.ts)
	if err != nil {
		// The regressed model stays serving (fail-open: a broken disk must
		// not take predictions down), but the regression is surfaced.
		l.sess.health.noteCheckpointFailure(err)
		l.sess.health.noteRollback(cause + " (rollback journal write failed)")
		return nil, err
	}
	l.serving.Store(g)
	l.sess.health.noteRollback(cause)
	return g, nil
}

// forcePromote promotes the current shadow candidate unconditionally (the
// ModelInfo/Promote wire op and fault-injection harnesses). The promoted
// model enters the same watch window as a scored promotion.
func (l *learner) forcePromote() (uint64, error) {
	l.opMu.Lock()
	defer l.opMu.Unlock()
	var cand *model.TraceSet
	if !l.sm.watching {
		if spec := l.rival.Load(); spec != nil && spec.ts != nil {
			cand = spec.ts
		}
	}
	if cand == nil {
		cand = l.collect(true)
	}
	if cand == nil {
		return 0, fmt.Errorf("core: no shadow candidate to promote yet")
	}
	g, err := l.promoteLocked(cand)
	if err != nil {
		return 0, err
	}
	l.sm.forcePromote()
	return g.num, nil
}

// forceRollback rolls back to the previous generation unconditionally.
func (l *learner) forceRollback() (uint64, error) {
	l.opMu.Lock()
	defer l.opMu.Unlock()
	if l.lin.previous == nil {
		return 0, fmt.Errorf("core: no previous generation to roll back to")
	}
	g, err := l.rollbackLocked(fmt.Sprintf(
		"model rollback: generation %d rolled back to generation %d content by operator",
		l.lin.serving.num, l.lin.previous.num))
	if err != nil {
		return 0, err
	}
	l.sm.forceRollback()
	return g.num, nil
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
		ShadowEpochs:      l.epochs.Load(),
		Retained:          l.lin.retained(),
	}
	if l.sm.watching {
		mi.State = "watching"
	}
	return mi
}

// close stops the manager goroutine and joins it (bounded, like the
// checkpointer: a hung disk must not stall the host's shutdown).
func (l *learner) close() {
	l.closeOnce.Do(func() { close(l.stop) })
	select {
	case <-l.done:
	case <-time.After(shutdownTimeout):
	}
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

// Close releases the session's background machinery (the lifecycle manager
// and the checkpointer, when present). Idempotent; sessions without either
// need not call it.
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
