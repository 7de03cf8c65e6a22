package core

import (
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/events"
	"repro/internal/model"
	"repro/internal/predictor"
	"repro/internal/tracefile"
)

// fastLearn is a small, quick-converging policy for tests.
func fastLearn() LearnPolicy {
	return LearnPolicy{
		EpochEvents:      64,
		PromoteEpochs:    2,
		PromoteMarginPct: 5,
		WatchEpochs:      3,
		CooldownEpochs:   2,
	}
}

// recordPattern builds a reference trace set of reps repetitions of the
// named event pattern on thread 0.
func recordPattern(t *testing.T, pattern []string, reps int) *model.TraceSet {
	t.Helper()
	s := NewRecordSession(WithRecorderOptions())
	th := s.Thread(0)
	for i := 0; i < reps; i++ {
		for _, name := range pattern {
			th.Submit(s.Registry().Intern(name))
		}
	}
	return mustFinishRecord(t, s)
}

// internPattern interns the named events and returns their ids.
func internPattern(s *Session, pattern []string) []int32 {
	out := make([]int32, len(pattern))
	for i, name := range pattern {
		out[i] = int32(s.Registry().Intern(name))
	}
	return out
}

func idOf(id int32) events.ID { return events.ID(id) }

// genPath is the journal file of generation gen in dir.
func genPath(dir string, gen uint64) string {
	return filepath.Join(dir, tracefile.GenPrefix+strconv.FormatUint(gen, 10))
}

func TestLifecycleStateMachine(t *testing.T) {
	pol := LearnPolicy{EpochEvents: 100, PromoteEpochs: 3, PromoteMarginPct: 10, WatchEpochs: 2, CooldownEpochs: 3}
	m := newLifecycle(pol)

	// Two wins then a loss: streak resets, no promotion.
	if a := m.observeEpoch(10, 90, 100); a != actNone {
		t.Fatalf("win 1: %v", a)
	}
	if a := m.observeEpoch(10, 90, 100); a != actNone {
		t.Fatalf("win 2: %v", a)
	}
	if a := m.observeEpoch(90, 10, 100); a != actNone {
		t.Fatalf("loss: %v", a)
	}
	// A marginal win below the margin does not count.
	if a := m.observeEpoch(50, 55, 100); a != actNone || m.streak != 0 {
		t.Fatalf("sub-margin win: %v streak=%d", a, m.streak)
	}
	// Three consecutive wins promote.
	m.observeEpoch(10, 90, 100)
	m.observeEpoch(10, 90, 100)
	if a := m.observeEpoch(10, 90, 100); a != actPromote {
		t.Fatalf("win 3: %v", a)
	}
	if !m.watching {
		t.Fatal("not watching after promotion")
	}
	// In the watch window the roles reverse: the rival is the previous
	// generation; a rival win is a regression.
	if a := m.observeEpoch(10, 90, 100); a != actRollback {
		t.Fatalf("regression: %v", a)
	}
	if m.watching || m.cooldown != 3 {
		t.Fatalf("after rollback: watching=%v cooldown=%d", m.watching, m.cooldown)
	}
	// Cooldown suppresses promotion even on clear wins.
	for i := 0; i < 3; i++ {
		if a := m.observeEpoch(0, 100, 100); a != actNone {
			t.Fatalf("cooldown epoch %d: %v", i, a)
		}
	}
	// Cooldown over: wins count again.
	m.observeEpoch(0, 100, 100)
	m.observeEpoch(0, 100, 100)
	if a := m.observeEpoch(0, 100, 100); a != actPromote {
		t.Fatalf("post-cooldown promotion: %v", a)
	}
	// This time the watch window expires quietly.
	if a := m.observeEpoch(90, 10, 100); a != actNone {
		t.Fatalf("watch 1: %v", a)
	}
	if a := m.observeEpoch(90, 10, 100); a != actNone {
		t.Fatalf("watch 2: %v", a)
	}
	if m.watching {
		t.Fatal("watch window did not expire")
	}
	// Empty epochs are ignored.
	if a := m.observeEpoch(0, 0, 0); a != actNone {
		t.Fatalf("empty epoch: %v", a)
	}
}

func TestLineageLedger(t *testing.T) {
	seed := &model.TraceSet{}
	cand := &model.TraceSet{}
	l := newLineage(seed, 1)
	if l.serving.num != 1 || l.serving.kind != model.ProvCheckpoint {
		t.Fatalf("seed: %+v", l.serving)
	}
	if _, err := l.rollback(2); err == nil {
		t.Fatal("rollback without a previous generation must fail")
	}
	g, err := l.promote(2, cand)
	if err != nil || g.num != 2 || g.parent != 1 || g.kind != model.ProvPromotion {
		t.Fatalf("promote: %+v err=%v", g, err)
	}
	if got := l.retained(); len(got) != 2 || got[0] != 2 || got[1] != 1 {
		t.Fatalf("retained: %v", got)
	}
	// Non-monotonic mints are rejected.
	if _, err := l.promote(2, cand); err == nil {
		t.Fatal("promote at serving number must fail")
	}
	rb, err := l.rollback(3)
	if err != nil || rb.num != 3 || rb.parent != 2 || rb.kind != model.ProvRollback || rb.ts != seed {
		t.Fatalf("rollback: %+v err=%v", rb, err)
	}
	if l.previous != nil {
		t.Fatal("rollback must clear the rollback target")
	}
	if l.next != 4 {
		t.Fatalf("next = %d", l.next)
	}
}

// driveLearning submits reps repetitions of pattern on thread 0 and polls
// cond between repetitions, returning true as soon as it holds.
func driveLearning(s *Session, pattern []int32, reps int, cond func() bool) bool {
	th := s.Thread(0)
	for i := 0; i < reps; i++ {
		for _, id := range pattern {
			th.Submit(idOf(id))
		}
		if i%8 == 0 && cond() {
			return true
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return false
}

func TestLearningPromotesOnDrift(t *testing.T) {
	patternA := []string{"a", "b", "c", "d"}
	patternB := []string{"d", "c", "b", "a"}
	ref := recordPattern(t, patternA, 200)

	s, err := NewLearningSession(ref, predictor.Config{}, fastLearn())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Mode() != ModeOnline {
		t.Fatalf("mode = %v", s.Mode())
	}
	mi := s.ModelInfo()
	if !mi.Enabled || mi.State != "learning" || mi.ServingGeneration != 1 {
		t.Fatalf("initial ModelInfo: %+v", mi)
	}

	// The workload drifts to pattern B: the shadow must out-predict the
	// frozen serving model and get promoted.
	ids := internPattern(s, patternB)
	promoted := driveLearning(s, ids, 4000, func() bool {
		return s.ModelInfo().Promotions >= 1
	})
	if !promoted {
		t.Fatalf("no promotion after drift: %+v", s.ModelInfo())
	}
	mi = s.ModelInfo()
	if mi.ServingGeneration < 2 {
		t.Fatalf("serving generation after promotion: %+v", mi)
	}
	if h := s.Health(); h.Promotions < 1 {
		t.Fatalf("health promotions: %+v", h)
	}

	// Keep the drifted workload flowing so the watch window expires without
	// a rollback, then verify the promoted model predicts pattern B.
	driveLearning(s, ids, 1000, func() bool { return s.ModelInfo().State == "learning" })
	if mi := s.ModelInfo(); mi.Rollbacks != 0 {
		t.Fatalf("unexpected rollback: %+v", mi)
	}
	th := s.Thread(0)
	correct, total := 0, 0
	for i := 0; i < 200; i++ {
		for _, id := range ids {
			if pred, ok := th.PredictAt(1); ok {
				total++
				if pred.EventID == id {
					correct++
				}
			}
			th.Submit(idOf(id))
		}
	}
	if total == 0 || correct*100 < total*90 {
		t.Fatalf("post-promotion accuracy on drifted workload: %d/%d", correct, total)
	}
}

func TestForcedPromotionRollsBack(t *testing.T) {
	patternA := []string{"a", "b", "c", "d"}
	patternB := []string{"d", "c", "b", "a"}
	ref := recordPattern(t, patternA, 200)

	s, err := NewLearningSession(ref, predictor.Config{}, fastLearn())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if _, err := s.Promote(); err == nil {
		t.Fatal("Promote with no shadow candidate must fail")
	}
	if _, err := s.Rollback(); err == nil {
		t.Fatal("Rollback with no previous generation must fail")
	}

	// Feed pattern B long enough for a shadow snapshot, then force-promote
	// the immature B model.
	idsB := internPattern(s, patternB)
	driveLearning(s, idsB, 100, func() bool {
		gen, perr := s.Promote()
		if perr != nil {
			return false
		}
		if gen < 2 {
			t.Errorf("forced promotion minted generation %d", gen)
		}
		return true
	})
	mi := s.ModelInfo()
	if mi.Promotions < 1 || mi.State != "watching" {
		t.Fatalf("after forced promotion: %+v", mi)
	}

	// The workload reverts to pattern A: the previous generation (the A
	// model) out-predicts the promoted B model inside the watch window, so
	// the lifecycle must roll back automatically.
	idsA := internPattern(s, patternA)
	rolledBack := driveLearning(s, idsA, 4000, func() bool {
		return s.ModelInfo().Rollbacks >= 1
	})
	if !rolledBack {
		t.Fatalf("no automatic rollback: %+v health=%+v", s.ModelInfo(), s.Health())
	}

	h := s.Health()
	if h.Rollbacks < 1 || h.State != StateDegraded {
		t.Fatalf("health after rollback: %+v", h)
	}
	if !strings.Contains(h.Cause, "rollback") {
		t.Fatalf("rollback cause not latched: %q", h.Cause)
	}
}

func TestLearningJournalLineage(t *testing.T) {
	patternA := []string{"a", "b", "c", "d"}
	patternB := []string{"d", "c", "b", "a"}
	ref := recordPattern(t, patternA, 200)
	dir := t.TempDir()

	pol := fastLearn()
	pol.Dir = dir
	pol.Keep = 8
	s, err := NewLearningSession(ref, predictor.Config{}, pol)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Seed generation must be durable before anything else happens.
	sts, err := tracefile.ScanJournal(dir)
	if err != nil || len(sts) != 1 || sts[0].Generation != 1 || sts[0].Err != "" {
		t.Fatalf("seed journal: %+v err=%v", sts, err)
	}

	idsB := internPattern(s, patternB)
	promoted := driveLearning(s, idsB, 4000, func() bool {
		return s.ModelInfo().Promotions >= 1
	})
	if !promoted {
		t.Fatalf("no promotion: %+v", s.ModelInfo())
	}
	gen := s.ModelInfo().ServingGeneration

	ts, err := tracefile.Load(genPath(dir, gen))
	if err != nil {
		t.Fatal(err)
	}
	p := ts.Provenance
	if p == nil || p.Kind != model.ProvPromotion || p.Generation != gen || p.Parent != 1 || p.UnixNanos == 0 {
		t.Fatalf("promotion provenance: %+v", p)
	}

	// Forced rollback mints a fresh, journaled generation with rollback
	// provenance pointing at the regressed one.
	rbGen, err := s.Rollback()
	if err != nil {
		t.Fatal(err)
	}
	if rbGen <= gen {
		t.Fatalf("rollback generation %d not past %d", rbGen, gen)
	}
	ts, err = tracefile.Load(genPath(dir, rbGen))
	if err != nil {
		t.Fatal(err)
	}
	p = ts.Provenance
	if p == nil || p.Kind != model.ProvRollback || p.Parent != gen {
		t.Fatalf("rollback provenance: %+v", p)
	}

	// Crash recovery lands on the newest committed generation.
	rec, rep, err := tracefile.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Used.Generation != rbGen || !rec.Provenance.Salvaged || rec.Provenance.Kind != model.ProvRollback {
		t.Fatalf("recover: used=%+v prov=%+v", rep.Used, rec.Provenance)
	}
}

func TestLearningSessionGuards(t *testing.T) {
	ref := recordPattern(t, []string{"a", "b"}, 50)
	if _, err := NewLearningSession(ref, predictor.Config{}, LearnPolicy{},
		WithCheckpoint(CheckpointPolicy{Dir: t.TempDir()})); err == nil {
		t.Fatal("learning session must reject WithCheckpoint")
	}

	// Frozen sessions answer lifecycle calls inertly.
	ps, err := NewPredictSession(ref, predictor.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if mi := ps.ModelInfo(); mi.Enabled || mi.State != "frozen" {
		t.Fatalf("frozen ModelInfo: %+v", mi)
	}
	if _, err := ps.Promote(); err == nil {
		t.Fatal("Promote on a frozen session must fail")
	}
	if _, err := ps.Rollback(); err == nil {
		t.Fatal("Rollback on a frozen session must fail")
	}

	// Close is idempotent and joins the manager.
	ls, err := NewLearningSession(ref, predictor.Config{}, LearnPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	ls.Close()
	ls.Close()
}

// buildReference records 100 repetitions of a, b with timestamps.
func buildReference(t *testing.T) *model.TraceSet {
	t.Helper()
	s := NewRecordSession()
	a := s.Registry().Intern("a")
	b := s.Registry().Intern("b")
	th := s.Thread(0)
	var now int64
	for i := 0; i < 100; i++ {
		th.SubmitAt(a, now)
		now += 10
		th.SubmitAt(b, now)
		now += 20
	}
	return mustFinishRecord(t, s)
}

// TestOnlineSessionPredictsAndRecords: a ModeOnline session — which is what
// NewLearningSession builds — answers from the reference while it
// re-records the live run.
func TestOnlineSessionPredictsAndRecords(t *testing.T) {
	ref := buildReference(t)
	on, err := NewLearningSession(ref, predictor.Config{}, LearnPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if on.Mode() != ModeOnline || on.Mode().String() != "online" {
		t.Fatalf("mode = %v", on.Mode())
	}
	a := on.Registry().Lookup("a")
	b := on.Registry().Lookup("b")
	th := on.Thread(0)
	th.StartAtBeginning()

	var now int64
	correct, total := 0, 0
	for i := 0; i < 100; i++ {
		for _, e := range []events.ID{a, b} {
			if pred, ok := th.PredictAt(1); ok {
				total++
				if pred.EventID == int32(e) {
					correct++
				}
			}
			th.SubmitAt(e, now)
			now += 15
		}
	}
	if total == 0 || correct != total {
		t.Fatalf("online prediction accuracy %d/%d", correct, total)
	}

	// The session also recorded the fresh execution.
	fresh := mustFinishRecord(t, on)
	if fresh.Threads[0].Grammar.EventCount != 200 {
		t.Fatalf("fresh trace has %d events, want 200", fresh.Threads[0].Grammar.EventCount)
	}
	if fresh.Threads[0].Timing == nil {
		t.Fatal("fresh trace lost its timing model")
	}
}

func TestOnlineSessionNewEventsExtendRegistry(t *testing.T) {
	ref := buildReference(t)
	on, err := NewLearningSession(ref, predictor.Config{}, LearnPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	// A brand-new event must get an id beyond the reference table.
	nu := on.Registry().Intern("brand-new")
	if int(nu) < len(ref.Events) {
		t.Fatalf("new event id %d collides with reference table (%d entries)", nu, len(ref.Events))
	}
	th := on.Thread(0)
	th.Submit(on.Registry().Lookup("a"))
	th.Submit(nu) // unexpected for the predictor, recorded all the same
	th.Submit(on.Registry().Lookup("b"))
	fresh := mustFinishRecord(t, on)
	if fresh.Threads[0].Grammar.EventCount != 3 {
		t.Fatalf("events = %d, want 3", fresh.Threads[0].Grammar.EventCount)
	}
	if fresh.Events[nu] != "brand-new" {
		t.Fatalf("descriptor table not extended: %v", fresh.Events)
	}
}
