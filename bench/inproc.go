package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"slices"

	"repro/internal/apps"
	"repro/pythia"
)

// ---- record-mix -----------------------------------------------------------

// recordMix records every mix7 rank stream into a fresh oracle of its own —
// an MPI rank is a process and has its own oracle — the way a reference
// execution pays for it: default clock, Intern and Submit per event, Finish
// at the end.
type recordMix struct {
	tally
	apps []appStreams
	last [][]*pythia.TraceSet // the most recent pass's recordings by app and rank, for the checks
	dir  string
}

func setupRecordMix(e env) (instance, error) {
	streams := e.in.sets[0]
	w := &recordMix{tally: tally{laps: e.laps}, apps: streams, last: make([][]*pythia.TraceSet, len(streams)), dir: e.dir}
	for ai, a := range streams {
		w.last[ai] = make([]*pythia.TraceSet, len(a.tids))
	}
	w.rearm(1 << 10)
	w.slice(&tracer{}) // warm-up pass
	return w, nil
}

func (w *recordMix) counts() *tally { return &w.tally }
func (w *recordMix) close() error   { return nil }

// slice is one pass over the stream set. The blocking call is Finish, one
// latency sample and one lap per rank stream.
func (w *recordMix) slice(tr *tracer) (int64, int64) {
	start := nowNs()
	var events int64
	for ai := range w.apps {
		a := &w.apps[ai]
		for ti, tid := range a.tids {
			o := pythia.NewRecordOracle()
			th := o.Thread(tid)
			stream := a.byTID[tid]
			for base := 0; base < len(stream); base += spanBatch {
				batch := stream[base:min(base+spanBatch, len(stream))]
				if tr.on {
					tr.begin("pythia.Intern+Submit")
				}
				for _, name := range batch {
					th.Submit(o.Intern(name))
				}
				if tr.on {
					tr.end(int64(len(batch)))
				}
				w.lap()
			}
			events += int64(len(stream))
			t0 := nowNs()
			ts, err := o.Finish()
			t1 := nowNs()
			if tr.on {
				tr.beginAt("pythia.Finish", t0)
				tr.endAt(1, t1)
			}
			w.attempted++
			if h := o.Health(); err != nil || h.State != pythia.Healthy {
				w.missed++
				w.fail(1, "record %s rank %d: Finish err=%v health=%s (%s)", a.name, tid, err, h.State, h.Cause)
			} else {
				w.waits.add(t1 - t0)
				w.last[ai][ti] = ts
			}
			w.lap()
		}
	}
	w.events += events
	w.attempted += events
	return events, nowNs() - start
}

// check holds the last pass's recordings against what was submitted: every
// rank's grammar unfolds to its stream, the trace file round-trips to the
// same unfold and event table, and — the recording's purpose — the model
// predicts its own execution (scored at distance 1 into accuracy_pct).
func (w *recordMix) check() error {
	var errs []error
	for ai := range w.apps {
		a := &w.apps[ai]
		for ti, tid := range a.tids {
			if err := w.checkRank(a, tid, w.last[ai][ti]); err != nil {
				errs = append(errs, fmt.Errorf("%s rank %d: %w", a.name, tid, err))
			}
		}
	}
	return errors.Join(errs...)
}

func (w *recordMix) checkRank(a *appStreams, tid int32, ts *pythia.TraceSet) error {
	if ts == nil {
		return errors.New("no recording to check")
	}
	stream := a.byTID[tid]
	if err := sameStream(ts, tid, stream); err != nil {
		return fmt.Errorf("recorded grammar: %w", err)
	}
	path := filepath.Join(w.dir, fmt.Sprintf("%s-%d.pythia", a.name, tid))
	if err := pythia.SaveTraceSet(path, ts); err != nil {
		return err
	}
	back, err := pythia.LoadTraceSet(path)
	if err != nil {
		return err
	}
	if !slices.Equal(back.Events, ts.Events) {
		return errors.New("event table changed across save/load")
	}
	if err := sameStream(back, tid, stream); err != nil {
		return fmt.Errorf("reloaded grammar: %w", err)
	}
	o, err := pythia.NewPredictOracle(back, pythia.Config{})
	if err != nil {
		return err
	}
	th := o.Thread(tid)
	th.StartAtBeginning()
	for i, name := range stream[:len(stream)-1] {
		th.Submit(o.Lookup(name))
		pr, ok := th.PredictAt(1)
		w.scored[0]++
		if ok && pr.EventID == int32(o.Lookup(stream[i+1])) {
			w.hits[0]++
		}
	}
	return nil
}

// sameStream reports whether ts holds thread tid alone and unfolds it to want.
func sameStream(ts *pythia.TraceSet, tid int32, want []string) error {
	th := ts.Threads[tid]
	if th == nil || len(ts.Threads) != 1 {
		return fmt.Errorf("%d threads recorded, want thread %d alone", len(ts.Threads), tid)
	}
	ids := th.Grammar.Unfold()
	if len(ids) != len(want) {
		return fmt.Errorf("unfolds to %d events, %d submitted", len(ids), len(want))
	}
	for i, id := range ids {
		if ts.Events[id] != want[i] {
			return fmt.Errorf("event %d is %q, submitted %q", i, ts.Events[id], want[i])
		}
	}
	return nil
}

// ---- the in-process predicting replay ---------------------------------------

// liveApp is one application being predicted: the oracle, the live rank
// streams it is fed, and those streams' ids in the model's event table
// (used only to score predictions; Submit looks names up as a user would).
type liveApp struct {
	appStreams
	model  *pythia.TraceSet
	oracle *pythia.Oracle
	ids    map[int32][]pythia.ID
}

// resolve fills in the scoring ids of the live streams.
func (a *liveApp) resolve(o *pythia.Oracle) {
	a.ids = make(map[int32][]pythia.ID, len(a.tids))
	for _, tid := range a.tids {
		ids := make([]pythia.ID, len(a.byTID[tid]))
		for i, name := range a.byTID[tid] {
			ids[i] = o.Lookup(name)
		}
		a.ids[tid] = ids
	}
}

// replayLocal feeds one rank stream to an in-process thread: Submit per
// event and, after every queryEvery-th event, a timed burst of one PredictAt
// per distance, folded into the digest and (when score is set) checked
// against the event that is then actually submitted.
func (t *tally) replayLocal(tr *tracer, o *pythia.Oracle, th *pythia.Thread, stream []string, ids []pythia.ID, dists []int, dg *digest, score bool) {
	th.StartAtBeginning()
	var preds [nDists]pythia.Prediction
	var oks [nDists]bool
	for base := 0; base < len(stream); base += spanBatch {
		end := min(base+spanBatch, len(stream))
		if tr.on {
			tr.begin("pythia.Lookup+Submit")
		}
		for i := base; i < end; i++ {
			th.Submit(o.Lookup(stream[i]))
			if (i+1)%queryEvery != 0 {
				continue
			}
			t0 := nowNs()
			for k, d := range dists {
				preds[k], oks[k] = th.PredictAt(d)
			}
			t1 := nowNs()
			t.waits.add(t1 - t0)
			if tr.on {
				tr.beginAt("pythia.PredictAt", t0)
				tr.endAt(int64(len(dists)), t1)
			}
			for k, d := range dists {
				dg.add(preds[k], oks[k])
				t.asked++
				if oks[k] {
					t.answered++
				}
				if score && i+d < len(ids) {
					t.scored[k]++
					if oks[k] && preds[k].EventID == int32(ids[i+d]) {
						t.hits[k]++
					}
				}
			}
			if (i+1)%lapEvents == 0 {
				t.lap()
			}
		}
		if tr.on {
			tr.end(int64(end - base))
		}
	}
	if len(stream)%lapEvents != 0 {
		t.lap()
	}
	n := int64(len(stream))
	t.events += n
	t.attempted += n + n/queryEvery*int64(len(dists))
}

// ---- predict-mix ------------------------------------------------------------

// predictDists are the distances of predict-mix's query burst (paper Fig. 8
// sweeps the same range); accuracy_pct reports the queryDist slot.
var predictDists = []int{1, 4, 16, 64}

// irregularPairs is how many independent (model seed, live seed) pairs of
// the irregular applications predict-mix replays. What one seed's control
// flow costs the predictor varies from seed to seed by ±15 % (Quicksilver)
// to ±30 % (AMG), and re-anchoring on those two is nine tenths of a pass
// over mix7; over four independent pairs that variation halves, which a
// run needs to resolve a change of a few percent.
const irregularPairs = 4

// predictMix replays mix7 against models of an earlier execution: the
// regular applications against their own (they run the same under any
// seed), the irregular ones — in variant i of the pass — the execution of
// seed+2i+1 against the model of seed+2i, so that they diverge and
// re-anchor. A slice is one variant; the run cycles through them.
type predictMix struct {
	tally
	variants [irregularPairs][]liveApp // regular apps (shared) + pair i
	ref      [irregularPairs]digest    // the digests of each variant's first pass; every later pass must repeat them
	passes   [irregularPairs]int
	next     int // the variant the next slice replays
}

// predicting opens the oracle that predicts live from model's recording.
func predicting(model, live appStreams, c *lapClock) (liveApp, error) {
	a := liveApp{appStreams: live, model: model.model}
	var err error
	if a.oracle, err = pythia.NewPredictOracle(a.model, pythia.Config{}); err != nil {
		return a, err
	}
	a.resolve(a.oracle)
	c.mark(0)
	return a, nil
}

// capturePredictMix captures the regular applications under seed and, for
// variant i, the irregular ones under seed+2i (the model's execution) and
// seed+2i+1 (the live one), and records the models.
func capturePredictMix(class apps.Class, seed int64, _ string) (inputs, error) {
	regular, err := capture(regularApps, class, seed)
	if err != nil {
		return inputs{}, err
	}
	if err := withModels(regular); err != nil {
		return inputs{}, err
	}
	in := inputs{sets: [][]appStreams{regular}}
	for i := int64(0); i < 2*irregularPairs; i++ {
		set, err := capture(irregularApps, class, seed+i)
		if err != nil {
			return inputs{}, err
		}
		if i%2 == 0 {
			if err := withModels(set); err != nil {
				return inputs{}, err
			}
		}
		in.sets = append(in.sets, set)
	}
	return in, nil
}

func setupPredictMix(e env) (instance, error) {
	var regular []liveApp
	for _, s := range e.in.sets[0] {
		a, err := predicting(s, s, e.laps)
		if err != nil {
			return nil, err
		}
		regular = append(regular, a)
	}
	w := &predictMix{tally: tally{laps: e.laps}}
	w.accSlot = slices.Index(predictDists, queryDist)
	w.rearm(1 << 12)
	for i := range w.variants {
		models, lives := e.in.sets[1+2*i], e.in.sets[2+2*i]
		w.variants[i] = append([]liveApp(nil), regular...)
		for k := range models {
			a, err := predicting(models[k], lives[k], e.laps)
			if err != nil {
				return nil, err
			}
			w.variants[i] = append(w.variants[i], a)
		}
		// Warm-up: the first rank of every application. A whole pass of
		// every variant would be nine tenths of the set-up and bury what the
		// oracles themselves cost to open.
		var dg digest
		for ai := range w.variants[i] {
			a := &w.variants[i][ai]
			tid := a.tids[0]
			w.replayLocal(&tracer{}, a.oracle, a.oracle.Thread(tid), a.byTID[tid], a.ids[tid], predictDists, &dg, false)
		}
	}
	return w, nil
}

func (w *predictMix) counts() *tally { return &w.tally }
func (w *predictMix) close() error   { return nil }

func (w *predictMix) pass(tr *tracer, variant int) digest {
	dg := fnvOffset
	for ai := range w.variants[variant] {
		a := &w.variants[variant][ai]
		for _, tid := range a.tids {
			w.replayLocal(tr, a.oracle, a.oracle.Thread(tid), a.byTID[tid], a.ids[tid], predictDists, &dg, true)
		}
	}
	return dg
}

func (w *predictMix) slice(tr *tracer) (int64, int64) {
	variant := w.next
	w.next = (w.next + 1) % irregularPairs
	before, start := w.events, nowNs()
	dg := w.pass(tr, variant)
	ns := nowNs() - start
	if w.passes[variant]++; w.passes[variant] == 1 {
		w.ref[variant] = dg
	} else if dg != w.ref[variant] {
		w.fail(1, "variant %d: pass digest %016x differs from the first pass's %016x", variant, dg, w.ref[variant])
	}
	return w.events - before, ns
}

func (w *predictMix) check() error {
	for i, apps := range w.variants {
		for _, a := range apps {
			if h := a.oracle.Health(); h.State != pythia.Healthy {
				return fmt.Errorf("variant %d: %s oracle is %s: %s", i, a.name, h.State, h.Cause)
			}
		}
	}
	return nil
}

// ---- learn-drift ------------------------------------------------------------

// One learn-drift episode: the first quarter of its passes replays the
// recorded streams, the rest replays them reversed, and predictions are
// scored over the last reversed pass — by then the lifecycle has had two
// passes of evidence to promote a model of the reversed workload.
const (
	driftForward  = 1
	driftReversed = 3
	driftScored   = 1
)

// learnDrift runs always-on learning: every Submit feeds the serving
// predictor and the shadow recorder, and the lifecycle may promote the
// shadow model while the bench keeps submitting.
type learnDrift struct {
	tally
	fwd, rev []liveApp
	oracles  []*pythia.Oracle // fresh learning oracles, armed for the next episode
}

func setupLearnDrift(e env) (instance, error) {
	w := &learnDrift{tally: tally{laps: e.laps}}
	for _, s := range e.in.sets[0] {
		f := liveApp{appStreams: s, model: s.model}
		o, err := pythia.NewPredictOracle(f.model, pythia.Config{})
		if err != nil {
			return nil, err
		}
		f.resolve(o)
		r := liveApp{appStreams: s.reversed(), model: f.model}
		r.resolve(o)
		w.fwd, w.rev = append(w.fwd, f), append(w.rev, r)
	}
	w.rearm(1 << 16)
	w.arm()
	e.laps.mark(0)
	w.slice(&tracer{}) // warm-up episode
	return w, nil
}

func (w *learnDrift) counts() *tally { return &w.tally }

var driftDists = []int{1}

// arm opens the next episode's learning oracles. An application pays that
// once, so it happens between the episodes, outside their laps.
func (w *learnDrift) arm() {
	w.oracles = w.oracles[:0]
	for i := range w.fwd {
		o, err := pythia.NewPredictOracle(w.fwd[i].model, pythia.Config{},
			pythia.WithOnlineLearning(pythia.LearnPolicy{}, pythia.WithClock(syntheticClock())))
		if err != nil {
			w.fail(1, "learning oracle for %s: %v", w.fwd[i].name, err)
			w.close()
			return
		}
		w.oracles = append(w.oracles, o)
	}
}

func (w *learnDrift) close() error {
	for _, o := range w.oracles {
		o.Close()
	}
	w.oracles = nil
	return nil
}

// slice is one episode on the armed oracles, and arms the next.
func (w *learnDrift) slice(tr *tracer) (int64, int64) {
	oracles := w.oracles
	if len(oracles) == 0 {
		return 0, 1 // arm failed; the failure is in the tally
	}
	before, start := w.events, nowNs()
	var dg digest
	for p := 0; p < driftForward+driftReversed; p++ {
		src := w.fwd
		if p >= driftForward {
			src = w.rev
		}
		score := p >= driftForward+driftReversed-driftScored
		for ai := range src {
			a, o := &src[ai], oracles[ai]
			for _, tid := range a.tids {
				w.replayLocal(tr, o, o.Thread(tid), a.byTID[tid], a.ids[tid], driftDists, &dg, score)
			}
		}
	}
	ns := nowNs() - start
	for i, o := range oracles {
		// Quarantine is the watchdog's designed answer to a drifted stream
		// and lifts by itself; only a degraded oracle (a contained panic, a
		// breached budget) has failed.
		if h := o.Health(); h.State == pythia.Degraded {
			w.fail(1, "%s learning oracle is degraded: %s", w.fwd[i].name, h.Cause)
		}
		mi := o.ModelInfo()
		w.promotions += mi.Promotions
		w.rollbacks += mi.Rollbacks
		w.shadowEpochs += mi.ShadowEpochs
	}
	w.close()
	w.arm()
	return w.events - before, ns
}

// check requires that learning actually happened: across the run's episodes
// the lifecycle judged epochs and promoted at least one shadow model (every
// promotion advances the serving generation).
func (w *learnDrift) check() error {
	if w.shadowEpochs == 0 || w.promotions == 0 {
		return fmt.Errorf("no learning: %d shadow epochs, %d promotions", w.shadowEpochs, w.promotions)
	}
	return nil
}
