package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
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

	// Close is idempotent.
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

// driftNames is a loop nest whose inner trip count varies with the outer
// iteration, so its grammar has structure to learn.
var driftNames = []string{"init", "send", "recv", "reduce", "barrier"}

// driftStream returns iters outer iterations of the loop nest as ids.
func driftStream(s *Session, iters int) []events.ID {
	ids := internPattern(s, driftNames)
	var out []events.ID
	for i := 0; i < iters; i++ {
		out = append(out, idOf(ids[0]))
		for k := 0; k < 2+i%3; k++ {
			out = append(out, idOf(ids[1]), idOf(ids[2]))
		}
		out = append(out, idOf(ids[3]), idOf(ids[4]))
	}
	return out
}

// reversed returns the stream back to front.
func reversed(ids []events.ID) []events.ID {
	out := make([]events.ID, len(ids))
	for i, id := range ids {
		out[len(ids)-1-i] = id
	}
	return out
}

// decision is one lifecycle event seen after a Submit: the event index, the
// action and a digest of the generation serving afterwards.
type decision struct {
	at     int
	action string
	digest string
}

// servingDigest hashes the serving generation's number and content, timing
// model included.
func servingDigest(t *testing.T, s *Session) string {
	t.Helper()
	g := s.learn.serving.Load()
	h := sha256.New()
	fmt.Fprintf(h, "%d:", g.num)
	if err := tracefile.Write(h, g.ts); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// driftSession records the pre-drift stream as the reference and opens a
// learning session on it under pol with the watch window widened to 16
// epochs. The returned stream is the pre-drift stream's reversal and then
// the pre-drift stream, twice: the reversal earns a promotion, and the
// pre-drift stream's return inside the watch window rolls it back. Submit
// it in virtual time with submitDrift.
func driftSession(t *testing.T, pol LearnPolicy) (*Session, []events.ID) {
	t.Helper()
	rs := NewRecordSession()
	fwd := driftStream(rs, 100)
	submitDrift(rs.Thread(0), fwd, nil)
	ref := mustFinishRecord(t, rs)

	pol.WatchEpochs = 16
	s, err := NewLearningSession(ref, predictor.Config{}, pol)
	if err != nil {
		t.Fatal(err)
	}
	var stream []events.ID
	for i := 0; i < 2; i++ {
		stream = append(append(stream, reversed(fwd)...), fwd...)
	}
	return s, stream
}

// submitDrift submits the stream in virtual time, calling after (if not
// nil) with each event's index once it is submitted.
func submitDrift(th *Thread, stream []events.ID, after func(i int)) {
	var now int64
	for i, id := range stream {
		th.SubmitAt(id, now)
		now += 10 + int64(id)
		if after != nil {
			after(i)
		}
	}
}

// learnDecisions drives a fresh drift session with no journal and lists
// every judged epoch, promotion and rollback.
func learnDecisions(t *testing.T) []decision {
	t.Helper()
	s, stream := driftSession(t, fastLearn())
	defer s.Close()
	var out []decision
	var last ModelInfo
	submitDrift(s.Thread(0), stream, func(i int) {
		mi := s.ModelInfo()
		for _, c := range []struct {
			action string
			n, was uint64
		}{
			{"epoch", mi.ShadowEpochs, last.ShadowEpochs},
			{"promote", mi.Promotions, last.Promotions},
			{"rollback", mi.Rollbacks, last.Rollbacks},
		} {
			for ; c.was < c.n; c.was++ {
				out = append(out, decision{at: i, action: c.action, digest: servingDigest(t, s)})
			}
		}
		last = mi
	})
	return out
}

// TestLearnerDecisionsDeterministic: every decision of a one-thread
// learning session sits at an event index, so the scheduler cannot move
// one — whatever GOMAXPROCS is, and beside a goroutine that keeps yielding.
func TestLearnerDecisionsDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	want := learnDecisions(t)
	var promotions, rollbacks int
	for _, d := range want {
		switch d.action {
		case "promote":
			promotions++
		case "rollback":
			rollbacks++
		}
	}
	if promotions == 0 || rollbacks == 0 {
		t.Fatalf("drift produced %d promotions and %d rollbacks; the test needs both", promotions, rollbacks)
	}

	runtime.GOMAXPROCS(2)
	compareDecisions(t, "GOMAXPROCS=2", want, learnDecisions(t))

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				runtime.Gosched()
			}
		}
	}()
	got := learnDecisions(t)
	close(stop)
	<-done
	compareDecisions(t, "beside a yielding goroutine", want, got)
}

func compareDecisions(t *testing.T, run string, want, got []decision) {
	t.Helper()
	for i := 0; i < len(want) || i < len(got); i++ {
		if i >= len(want) || i >= len(got) || want[i] != got[i] {
			var w, g any = "none", "none"
			if i < len(want) {
				w = want[i]
			}
			if i < len(got) {
				g = got[i]
			}
			t.Fatalf("%s: decision %d differs: got %+v, want %+v (%d vs %d decisions)", run, i, g, w, len(got), len(want))
		}
	}
}

// settlesTo waits briefly for the goroutine count to return to want: a
// joined goroutine may still be unwinding when its join returns.
func settlesTo(want int) bool {
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if runtime.NumGoroutine() == want {
			return true
		}
	}
	return false
}

// quietGoroutines returns the goroutine count once it has held still for
// 20 ms, so goroutines that earlier tests joined have finished unwinding.
func quietGoroutines() int {
	n, still := runtime.NumGoroutine(), 0
	for deadline := time.Now().Add(2 * time.Second); still < 20 && time.Now().Before(deadline); still++ {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m != n {
			n, still = m, 0
		}
	}
	return n
}

// TestLearningSessionStartsNoGoroutine: a session without a journal decides
// on its submitting thread and starts nothing; with one, every commit
// goroutine is joined by Close.
func TestLearningSessionStartsNoGoroutine(t *testing.T) {
	for _, dir := range []string{"", t.TempDir()} {
		before := quietGoroutines()
		pol := fastLearn()
		pol.Dir = dir
		s, stream := driftSession(t, pol)
		submitDrift(s.Thread(0), stream, nil)
		if _, err := s.Promote(); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Rollback(); err != nil {
			t.Fatal(err)
		}
		mi := s.ModelInfo()
		if mi.Promotions < 2 || mi.Rollbacks < 1 {
			t.Fatalf("dir %q: %+v, want a scored promotion, a forced one and a rollback", dir, mi)
		}
		if dir == "" && !settlesTo(before) {
			t.Fatalf("learning session without a journal runs %d goroutines, had %d before it", runtime.NumGoroutine(), before)
		}
		s.Close()
		if !settlesTo(before) {
			t.Fatalf("dir %q: %d goroutines after Close, had %d before the session", dir, runtime.NumGoroutine(), before)
		}
	}
}

// TestJournalWriteNeverStallsSubmit holds a scored promotion's journal write
// and shows that Submits keep completing while it is held: the epochs they
// complete are dropped, nothing is published, and the thread adopts the
// generation at its first Submit after the write returns.
func TestJournalWriteNeverStallsSubmit(t *testing.T) {
	pol := fastLearn()
	pol.Dir = t.TempDir()
	s, stream := driftSession(t, pol)
	defer s.Close()
	held, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	tracefile.SetCrashHook(func(point, _ string) {
		if point == tracefile.CrashSaveCreatedTemp {
			once.Do(func() {
				close(held)
				<-release
			})
		}
	})
	defer tracefile.SetCrashHook(nil)
	releaseOnce := sync.OnceFunc(func() { close(release) })
	defer releaseOnce()

	th := s.Thread(0)
	var now int64
	submit := func(id events.ID) {
		th.SubmitAt(id, now)
		now += 10 + int64(id)
	}
	// The commit goroutine may reach the hook only after the stream ends.
	i := 0
	for ; i < len(stream); i++ {
		submit(stream[i])
		select {
		case <-held:
		default:
			continue
		}
		break
	}
	select {
	case <-held:
	case <-time.After(10 * time.Second):
		t.Fatalf("no scored promotion reached the journal: %+v", s.ModelInfo())
	}
	mi := s.ModelInfo()
	if mi.Promotions != 0 || mi.ServingGeneration != 1 || mi.State != "learning" {
		t.Fatalf("published before the write returned: %+v", mi)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for j := 0; j < 20*int(pol.EpochEvents); j++ {
			submit(stream[(i+1+j)%len(stream)])
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Submit stalled behind a held journal write")
	}
	if got := s.ModelInfo(); got.Promotions != 0 || got.ShadowEpochs != mi.ShadowEpochs {
		t.Fatalf("epochs judged or a generation published while the write was held: %+v, then %+v", mi, got)
	}

	releaseOnce()
	s.Close() // joins the commit goroutine
	mi = s.ModelInfo()
	if mi.Promotions != 1 || mi.ServingGeneration != 2 || mi.State != "watching" {
		t.Fatalf("after the write returned: %+v", mi)
	}
	if th.learn.gen.num != 1 {
		t.Fatalf("thread adopted generation %d before its next Submit", th.learn.gen.num)
	}
	submit(stream[0])
	if th.learn.gen.num != 2 {
		t.Fatalf("thread serves generation %d after its next Submit, want 2", th.learn.gen.num)
	}
}
