package core

import (
	"sync"
	"testing"

	"repro/internal/events"
	"repro/internal/model"
	"repro/internal/predictor"
	"repro/internal/recorder"
)

// mustFinishRecord finalises a record-capable session, failing the test on
// error (a healthy session's FinishRecord cannot fail).
func mustFinishRecord(t *testing.T, s *Session) *model.TraceSet {
	t.Helper()
	ts, err := s.FinishRecord()
	if err != nil {
		t.Fatalf("FinishRecord: %v", err)
	}
	return ts
}

// appSequence returns the synthetic per-thread event sequence used by the
// tests: 50 iterations of (a, b) with a barrier every 10 iterations.
func appSequence(a, b, c events.ID) []events.ID {
	var seq []events.ID
	for i := 0; i < 50; i++ {
		seq = append(seq, a, b)
		if i%10 == 9 {
			seq = append(seq, c)
		}
	}
	return seq
}

func TestRecordThenPredictRoundTrip(t *testing.T) {
	s := NewRecordSession(WithRecorderOptions(recorder.WithoutTimestamps()))
	reg := s.Registry()
	a := reg.Intern("phaseA")
	b := reg.Intern("phaseB")
	c := reg.Intern("barrier")
	seq := appSequence(a, b, c)
	th := s.Thread(0)
	for _, e := range seq {
		th.Submit(e)
	}
	set := mustFinishRecord(t, s)
	if err := set.Validate(); err != nil {
		t.Fatalf("trace set invalid: %v", err)
	}

	ps, err := NewPredictSession(set, predictor.Config{})
	if err != nil {
		t.Fatalf("NewPredictSession: %v", err)
	}
	if ps.Mode() != ModePredict {
		t.Fatalf("mode = %v", ps.Mode())
	}
	preg := ps.Registry()
	if preg.Lookup("phaseA") != a || preg.Lookup("barrier") != c {
		t.Fatal("registry ids not preserved across record/predict")
	}

	pt := ps.Thread(0)
	pt.StartAtBeginning()
	for i, e := range seq {
		pred, ok := pt.PredictAt(1)
		if !ok {
			t.Fatalf("step %d: no prediction", i)
		}
		if pred.EventID != int32(e) {
			t.Fatalf("step %d: predicted %d, actual %d", i, pred.EventID, e)
		}
		pt.Submit(e)
	}
}

func TestConcurrentThreadsRecord(t *testing.T) {
	s := NewRecordSession(WithRecorderOptions(recorder.WithoutTimestamps()))
	reg := s.Registry()
	a := reg.Intern("phaseA")
	b := reg.Intern("phaseB")
	c := reg.Intern("barrier")
	var wg sync.WaitGroup
	const nThreads = 8
	for tid := int32(0); tid < nThreads; tid++ {
		wg.Add(1)
		go func(tid int32) {
			defer wg.Done()
			th := s.Thread(tid)
			for _, e := range appSequence(a, b, c) {
				th.Submit(e)
			}
		}(tid)
	}
	wg.Wait()
	set := mustFinishRecord(t, s)
	if err := set.Validate(); err != nil {
		t.Fatalf("trace set invalid: %v", err)
	}
	if len(set.Threads) != nThreads {
		t.Fatalf("recorded %d threads, want %d", len(set.Threads), nThreads)
	}
	if got := set.TotalEvents(); got != int64(nThreads*len(appSequence(a, b, c))) {
		t.Fatalf("TotalEvents = %d", got)
	}
	ids := set.ThreadIDs()
	if len(ids) != nThreads || ids[0] != 0 || ids[nThreads-1] != nThreads-1 {
		t.Fatalf("ThreadIDs = %v", ids)
	}
}

// TestConcurrentThreadDispatchRace hammers Session.Thread from many
// goroutines with overlapping tids so that lock-free snapshot readers race
// against copy-on-write creators (and creators race each other). Every
// goroutine must observe the same handle per tid; run under -race this also
// checks the snapshot publication itself.
func TestConcurrentThreadDispatchRace(t *testing.T) {
	s := NewRecordSession(WithRecorderOptions(recorder.WithoutTimestamps()))
	const nGoroutines = 16
	const nTids = 32
	const lookups = 2000
	handles := make([][nTids]*Thread, nGoroutines)
	var wg sync.WaitGroup
	for g := 0; g < nGoroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < lookups; i++ {
				tid := int32((i*7 + g) % nTids)
				th := s.Thread(tid)
				if th.TID() != tid {
					t.Errorf("goroutine %d: Thread(%d) returned handle for %d", g, tid, th.TID())
					return
				}
				if prev := handles[g][tid]; prev != nil && prev != th {
					t.Errorf("goroutine %d: Thread(%d) changed identity", g, tid)
					return
				}
				handles[g][tid] = th
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < nGoroutines; g++ {
		for tid := 0; tid < nTids; tid++ {
			if handles[g][tid] != handles[0][tid] {
				t.Fatalf("goroutines 0 and %d saw different handles for tid %d", g, tid)
			}
		}
	}
	if got := len(*s.threads.Load()); got != nTids {
		t.Fatalf("snapshot holds %d threads, want %d", got, nTids)
	}
}

func TestPredictSessionMissingThread(t *testing.T) {
	s := NewRecordSession(WithRecorderOptions(recorder.WithoutTimestamps()))
	a := s.Registry().Intern("x")
	th := s.Thread(0)
	th.Submit(a)
	th.Submit(a)
	set := mustFinishRecord(t, s)

	ps, err := NewPredictSession(set, predictor.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Thread 7 was never recorded: its handle must be inert.
	pt := ps.Thread(7)
	pt.Submit(a)
	if _, ok := pt.PredictAt(1); ok {
		t.Fatal("prediction from a thread without a reference trace")
	}
	if pt.Predictor() != nil || pt.Recorder() != nil {
		t.Fatal("unexpected backing state for unknown thread")
	}
}

func TestThreadHandleIdentity(t *testing.T) {
	s := NewRecordSession()
	if s.Thread(3) != s.Thread(3) {
		t.Fatal("Thread not idempotent")
	}
	if s.Thread(3).TID() != 3 {
		t.Fatal("TID mismatch")
	}
}

func TestFinishRecordPanicsOnPredictSession(t *testing.T) {
	s := NewRecordSession(WithRecorderOptions(recorder.WithoutTimestamps()))
	a := s.Registry().Intern("x")
	th := s.Thread(0)
	th.Submit(a)
	th.Submit(a)
	set := mustFinishRecord(t, s)
	ps, err := NewPredictSession(set, predictor.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ps.FinishRecord(); err == nil {
		t.Fatal("FinishRecord on predict session did not return an error")
	}
}

func TestModeString(t *testing.T) {
	if ModeRecord.String() != "record" || ModePredict.String() != "predict" {
		t.Fatal("Mode.String broken")
	}
	if Mode(42).String() == "" {
		t.Fatal("unknown mode renders empty")
	}
}

func TestTotalEventsDuringRecord(t *testing.T) {
	s := NewRecordSession(WithRecorderOptions(recorder.WithoutTimestamps()))
	a := s.Registry().Intern("x")
	th := s.Thread(0)
	for i := 0; i < 10; i++ {
		th.Submit(a)
	}
	if n := s.TotalEvents(); n != 10 {
		t.Fatalf("TotalEvents = %d, want 10", n)
	}
}

// TestSubmitBatchMatchesSubmit holds SubmitBatch to per-event Submit on a
// predicting session driven into watchdog quarantine and back: after every
// chunk the two sessions report the same health and the same prediction.
func TestSubmitBatchMatchesSubmit(t *testing.T) {
	rs := NewRecordSession(WithRecorderOptions(recorder.WithoutTimestamps()))
	reg := rs.Registry()
	a, b, c := reg.Intern("phaseA"), reg.Intern("phaseB"), reg.Intern("barrier")
	seq := appSequence(a, b, c)
	for _, e := range seq {
		rs.Thread(0).Submit(e)
	}
	set := mustFinishRecord(t, rs)

	var stream []events.ID
	for i := 0; i < 4; i++ {
		stream = append(stream, seq...)
	}
	for i := 0; i < 600; i++ {
		stream = append(stream, c, c, a) // off the reference: the watchdog trips
	}
	for i := 0; i < 8; i++ {
		stream = append(stream, seq...)
	}

	one, err := NewPredictSession(set, predictor.Config{})
	if err != nil {
		t.Fatal(err)
	}
	batched, err := NewPredictSession(set, predictor.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ot, bt := one.Thread(0), batched.Thread(0)
	ot.StartAtBeginning()
	bt.StartAtBeginning()
	quarantined := false
	for lo := 0; lo < len(stream); lo += 7 {
		hi := min(lo+7, len(stream))
		for _, e := range stream[lo:hi] {
			ot.Submit(e)
		}
		bt.SubmitBatch(stream[lo:hi])
		oh, bh := one.Health(), batched.Health()
		if oh != bh {
			t.Fatalf("events [%d,%d): health %+v per event, %+v batched", lo, hi, oh, bh)
		}
		quarantined = quarantined || oh.State == StateQuarantined
		op, ook := ot.PredictAt(1)
		bp, bok := bt.PredictAt(1)
		if ook != bok || op.EventID != bp.EventID {
			t.Fatalf("events [%d,%d): prediction %d/%v per event, %d/%v batched", lo, hi, op.EventID, ook, bp.EventID, bok)
		}
	}
	if !quarantined {
		t.Fatal("the off-reference stretch never quarantined the thread; the test lost its point")
	}

	// A degraded session drops the whole batch.
	batched.InjectFailure("test", "injected")
	before := bt.Predictor().Stats()
	bt.SubmitBatch(seq)
	if bt.Predictor().Stats() != before {
		t.Fatal("SubmitBatch on a degraded session still observed events")
	}
}

// TestSubmitBatchBudgetBreach: a record budget breached mid-batch is noted
// once, as per-event Submit notes it.
func TestSubmitBatchBudgetBreach(t *testing.T) {
	s := NewRecordSession(WithRecorderOptions(recorder.WithoutTimestamps(), recorder.WithMaxEvents(10)))
	a := s.Registry().Intern("a")
	batch := make([]events.ID, 40)
	for i := range batch {
		batch[i] = a
	}
	s.Thread(0).SubmitBatch(batch)
	if h := s.Health(); h.State != StateDegraded || h.BudgetBreaches != 1 {
		t.Fatalf("health = %+v, want degraded with one breach", h)
	}
	ts := mustFinishRecord(t, s)
	if !ts.Threads[0].Truncated || ts.Threads[0].Dropped != 30 {
		t.Fatalf("trace truncated=%v dropped=%d", ts.Threads[0].Truncated, ts.Threads[0].Dropped)
	}
}

func TestSubmitAtVirtualTimestamps(t *testing.T) {
	s := NewRecordSession() // timestamps on by default
	a := s.Registry().Intern("x")
	b := s.Registry().Intern("y")
	th := s.Thread(0)
	var now int64
	for i := 0; i < 20; i++ {
		th.SubmitAt(a, now)
		now += 50
		th.SubmitAt(b, now)
		now += 150
	}
	set := mustFinishRecord(t, s)
	tr := set.Trace(0)
	if tr.Timing == nil {
		t.Fatal("no timing model")
	}
	if m := tr.Timing.ByEvent[int32(b)].Mean(); m < 49 || m > 51 {
		t.Fatalf("mean before y = %v, want ~50", m)
	}
}
