package core

import (
	"errors"
	"os"
	"testing"
	"time"

	"repro/internal/recorder"
	"repro/internal/tracefile"
)

// waitFor polls cond until it holds or the deadline passes — checkpoint
// writes happen on a background goroutine, so tests observe them
// asynchronously.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestCheckpointingWritesRecoverableGenerations(t *testing.T) {
	dir := t.TempDir()
	// Timestamps on: the background materialization replays the delta log
	// while the recording threads keep appending to it — the exact sharing
	// the checkpoint snapshot must make safe (run under -race in CI).
	var now int64
	s := NewRecordSession(
		WithRecorderOptions(recorder.WithClock(func() int64 { now += 7; return now })),
		WithCheckpoint(CheckpointPolicy{Dir: dir, EveryEvents: 100}),
	)
	a := s.Registry().Intern("a")
	b := s.Registry().Intern("b")
	for tid := int32(0); tid < 2; tid++ {
		th := s.Thread(tid)
		for i := 0; i < 500; i++ {
			th.Submit(a)
			th.Submit(b)
		}
	}
	// The threads ran one after the other, so the early generations hold
	// thread 0 alone; wait for one that has seen both.
	waitFor(t, "a checkpoint generation covering both threads", func() bool {
		got, _, err := tracefile.Recover(dir)
		return err == nil && len(got.Threads) == 2
	})

	// The crash: recording simply stops here. Recovery must hand back a
	// usable prefix of both threads.
	got, rep, err := tracefile.Recover(dir)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if rep.Used == nil {
		t.Fatal("recovery report has no used generation")
	}
	if len(got.Threads) != 2 {
		t.Fatalf("recovered %d threads, want 2", len(got.Threads))
	}
	for tid, th := range got.Threads {
		if th.Grammar.EventCount == 0 {
			t.Fatalf("thread %d recovered empty", tid)
		}
		if !th.Truncated {
			t.Fatalf("thread %d not marked truncated after recovery", tid)
		}
	}

	// A clean finish still works after checkpointing and returns the full
	// recording, unmarked.
	ts, err := s.FinishRecord()
	if err != nil {
		t.Fatal(err)
	}
	if ts.TotalEvents() != 2000 {
		t.Fatalf("finished with %d events, want 2000", ts.TotalEvents())
	}
	for tid, th := range ts.Threads {
		if th.Truncated {
			t.Fatalf("thread %d of the finished trace marked truncated", tid)
		}
	}
	if ts.Provenance != nil {
		t.Fatalf("finished trace carries provenance %+v", ts.Provenance)
	}
	if got.TotalEvents() > ts.TotalEvents() {
		t.Fatalf("checkpoint covers %d events, more than the %d recorded", got.TotalEvents(), ts.TotalEvents())
	}
}

func TestCheckpointNow(t *testing.T) {
	dir := t.TempDir()
	// Interval-only policy with an hour period: no write happens on its own
	// within the test, so the generation observed must come from
	// CheckpointNow.
	s := NewRecordSession(
		WithRecorderOptions(recorder.WithoutTimestamps()),
		WithCheckpoint(CheckpointPolicy{Dir: dir, Interval: time.Hour}),
	)
	a := s.Registry().Intern("a")
	th := s.Thread(0)
	for i := 0; i < 2*DefaultCheckpointEvents; i++ {
		th.Submit(a)
	}
	if err := s.CheckpointNow(); err != nil {
		t.Fatalf("CheckpointNow: %v", err)
	}
	got, _, err := tracefile.Recover(dir)
	if err != nil {
		t.Fatalf("Recover after CheckpointNow: %v", err)
	}
	if n := got.Threads[0].Grammar.EventCount; n < DefaultCheckpointEvents {
		t.Fatalf("checkpoint covers %d events, want at least one snapshot cadence (%d)", n, DefaultCheckpointEvents)
	}
	// Nothing new since the last flush: CheckpointNow must not burn a
	// generation on identical state.
	before, err := tracefile.ScanJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	after, err := tracefile.ScanJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Fatalf("idle CheckpointNow wrote a generation: %d -> %d", len(before), len(after))
	}
}

func TestCheckpointNowWithoutCheckpointing(t *testing.T) {
	s := NewRecordSession(WithRecorderOptions(recorder.WithoutTimestamps()))
	if err := s.CheckpointNow(); err == nil {
		t.Fatal("CheckpointNow on a session without checkpointing succeeded")
	}
}

func TestCheckpointJournalOpenFailureDegradesNotFatal(t *testing.T) {
	// A file where the journal directory should be: OpenJournal fails, the
	// session must degrade its health but keep recording.
	dir := t.TempDir()
	blocked := dir + "/blocked"
	if err := os.WriteFile(blocked, []byte("x"), 0o666); err != nil {
		t.Fatal(err)
	}
	s := NewRecordSession(
		WithRecorderOptions(recorder.WithoutTimestamps()),
		WithCheckpoint(CheckpointPolicy{Dir: blocked, EveryEvents: 10}),
	)
	h := s.Health()
	if h.State != StateDegraded || h.CheckpointFailures == 0 {
		t.Fatalf("health %+v, want degraded with checkpoint failures", h)
	}
	a := s.Registry().Intern("a")
	th := s.Thread(0)
	for i := 0; i < 100; i++ {
		th.Submit(a)
	}
	ts, err := s.FinishRecord()
	if err != nil {
		t.Fatalf("FinishRecord after checkpoint degradation: %v", err)
	}
	if ts.TotalEvents() != 100 {
		t.Fatalf("recorded %d events, want 100", ts.TotalEvents())
	}
}

func TestCheckpointWriteFailureDegradesNotFatal(t *testing.T) {
	dir := t.TempDir()
	jdir := dir + "/journal"
	s := NewRecordSession(
		WithRecorderOptions(recorder.WithoutTimestamps()),
		WithCheckpoint(CheckpointPolicy{Dir: jdir, EveryEvents: 10}),
	)
	// Yank the journal directory out from under the checkpointer: every
	// generation write now fails (works even when running as root, unlike
	// permission tricks).
	if err := os.RemoveAll(jdir); err != nil {
		t.Fatal(err)
	}
	a := s.Registry().Intern("a")
	th := s.Thread(0)
	for i := 0; i < 1000; i++ {
		th.Submit(a)
	}
	waitFor(t, "checkpoint failure to surface in health", func() bool {
		return s.Health().CheckpointFailures > 0
	})
	h := s.Health()
	if h.State != StateDegraded {
		t.Fatalf("state %v, want degraded", h.State)
	}
	// The recording itself must be unaffected.
	ts, err := s.FinishRecord()
	if err != nil {
		t.Fatalf("FinishRecord after write failures: %v", err)
	}
	if ts.TotalEvents() != 1000 {
		t.Fatalf("recorded %d events, want 1000", ts.TotalEvents())
	}
}

func TestRecoverErrNoGeneration(t *testing.T) {
	_, _, err := tracefile.Recover(t.TempDir())
	if !errors.Is(err, tracefile.ErrNoRecoverableGeneration) {
		t.Fatalf("err = %v, want ErrNoRecoverableGeneration", err)
	}
}
