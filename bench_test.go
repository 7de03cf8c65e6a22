// Package repro's root benchmarks regenerate every table and figure of the
// paper's evaluation (section III) at benchmark scale — one benchmark per
// table/figure, plus the ablations called out in DESIGN.md. Custom metrics
// (b.ReportMetric) carry the headline number of each experiment so `go test
// -bench . -benchmem` doubles as a results report:
//
//	BenchmarkTable1_RecordOverhead     overhead-pct
//	BenchmarkFig8_Accuracy             accuracy-pct (x=64, large vs small trace)
//	BenchmarkFig9_PredictionCost       µs-per-query at x=64
//	BenchmarkFig10/11/12/13            improvement-pct of Predict vs Vanilla
//	BenchmarkFig14_ErrorResilience     slowdown-pct at error rate 0.8 vs clean
package repro

import (
	"fmt"
	"io"
	"math/rand"
	"testing"

	"repro/internal/apps"
	"repro/internal/events"
	"repro/internal/grammar"
	"repro/internal/harness"
	"repro/internal/model"
	"repro/internal/ompsim"
	"repro/internal/predictor"
	"repro/internal/recorder"
	"repro/pythia"
)

// BenchmarkTable1_RecordOverhead measures PYTHIA-RECORD's overhead on a
// representative regular (BT) and irregular (Quicksilver) application, the
// Table I experiment at benchmark scale. The medium working set keeps the
// compute-to-event ratio representative (the small class is event-dense and
// overstates the relative cost; the full Table I uses large — see
// `pythia-bench -experiment table1`).
func BenchmarkTable1_RecordOverhead(b *testing.B) {
	for _, name := range []string{"BT", "Quicksilver"} {
		b.Run(name, func(b *testing.B) {
			app, err := apps.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			var vanilla, recorded int64
			for i := 0; i < b.N; i++ {
				vanilla += int64(harness.RunMPIApp(app, apps.Medium, false, 42).Wall)
				recorded += int64(harness.RunMPIApp(app, apps.Medium, true, 42).Wall)
			}
			if vanilla > 0 {
				b.ReportMetric((float64(recorded)/float64(vanilla)-1)*100, "overhead-pct")
			}
		})
	}
}

// BenchmarkFig7_BTGrammar regenerates the BT grammar extraction.
func BenchmarkFig7_BTGrammar(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := harness.Fig7(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8_Accuracy measures prediction accuracy at distance 64 when a
// small-class BT trace predicts a large-class run (the Fig. 8 protocol).
func BenchmarkFig8_Accuracy(b *testing.B) {
	var acc float64
	for i := 0; i < b.N; i++ {
		rows, err := harness.Fig8(harness.Fig8Config{
			Apps: []string{"BT"}, Distances: []int{64}, MaxSamplesPerRank: 20,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Class == apps.Large {
				acc = r.Accuracy
			}
		}
	}
	b.ReportMetric(acc*100, "accuracy-pct")
}

// BenchmarkFig9_PredictionCost measures the mean cost of one oracle query at
// distance 64 on the CG large working set.
func BenchmarkFig9_PredictionCost(b *testing.B) {
	var cost float64
	for i := 0; i < b.N; i++ {
		rows, err := harness.Fig9(harness.Fig9Config{
			Apps: []string{"CG"}, Distances: []int{64}, MaxSamples: 16,
		})
		if err != nil {
			b.Fatal(err)
		}
		cost = float64(rows[len(rows)-1].MeanCost) / 1e3
	}
	b.ReportMetric(cost, "us-per-query")
}

// BenchmarkFig10_LuleshProblemSizePudding regenerates the problem-size sweep
// on the 24-core model; the reported metric is the improvement at s=30.
func BenchmarkFig10_LuleshProblemSizePudding(b *testing.B) {
	benchLuleshSweep(b, ompsim.Pudding(), false)
}

// BenchmarkFig11_LuleshProblemSizePixel is Fig. 10 on the 16-core model.
func BenchmarkFig11_LuleshProblemSizePixel(b *testing.B) {
	benchLuleshSweep(b, ompsim.Pixel(), false)
}

// BenchmarkFig12_LuleshMaxThreadsPudding regenerates the max-thread sweep at
// s=30 on the 24-core model.
func BenchmarkFig12_LuleshMaxThreadsPudding(b *testing.B) {
	benchLuleshSweep(b, ompsim.Pudding(), true)
}

// BenchmarkFig13_LuleshMaxThreadsPixel is Fig. 12 on the 16-core model.
func BenchmarkFig13_LuleshMaxThreadsPixel(b *testing.B) {
	benchLuleshSweep(b, ompsim.Pixel(), true)
}

func benchLuleshSweep(b *testing.B, m ompsim.MachineModel, threadSweep bool) {
	var imp float64
	for i := 0; i < b.N; i++ {
		var pts []harness.LuleshPoint
		if threadSweep {
			pts = harness.Fig12(m)
			imp = pts[len(pts)-1].ImprovementPct
		} else {
			pts = harness.Fig10(m)
			for _, p := range pts {
				if p.X == 30 {
					imp = p.ImprovementPct
				}
			}
		}
	}
	b.ReportMetric(imp, "improvement-pct")
}

// BenchmarkFig14_ErrorResilience regenerates the error-rate sweep; the
// metric is the slowdown of the 0.8-error-rate run relative to the clean
// adaptive run.
func BenchmarkFig14_ErrorResilience(b *testing.B) {
	var slowdown float64
	for i := 0; i < b.N; i++ {
		rows := harness.Fig14(2)
		var clean, noisy int64
		for _, r := range rows {
			if r.ErrorRate == 0 {
				clean = r.PredictNs
			}
			if r.ErrorRate == 0.8 {
				noisy = r.PredictNs
			}
		}
		if clean > 0 {
			slowdown = (float64(noisy)/float64(clean) - 1) * 100
		}
	}
	b.ReportMetric(slowdown, "slowdown-pct")
}

// BenchmarkAblation_RunLengthVsPlain compares Pythia's run-length grammar
// engine with plain Sequitur on a loop-heavy trace (DESIGN.md ablation 1).
// The metric is the rule-count ratio plain/run-length.
func BenchmarkAblation_RunLengthVsPlain(b *testing.B) {
	var seq []int32
	for i := 0; i < 3000; i++ {
		seq = append(seq, 0, 0, 0, 1, 2, 2)
	}
	b.Run("run-length", func(b *testing.B) {
		b.ReportAllocs()
		var rules int
		for i := 0; i < b.N; i++ {
			g := grammar.New()
			for _, e := range seq {
				g.Append(e)
			}
			rules = g.RuleCount()
		}
		b.ReportMetric(float64(rules), "rules")
	})
	b.Run("plain-sequitur", func(b *testing.B) {
		b.ReportAllocs()
		var rules int
		for i := 0; i < b.N; i++ {
			g := grammar.NewPlain()
			for _, e := range seq {
				g.Append(e)
			}
			rules = g.RuleCount()
		}
		b.ReportMetric(float64(rules), "rules")
	})
}

// BenchmarkAblation_CandidateCap sweeps the partial-progress hypothesis cap
// (DESIGN.md ablation 2): accuracy under noisy tracking vs query cost.
func BenchmarkAblation_CandidateCap(b *testing.B) {
	// Phases share the "0 1" prefix but diverge afterwards, so re-anchoring
	// on event 0 is genuinely ambiguous and the hypothesis cap matters.
	var seq []int32
	for rep := 0; rep < 30; rep++ {
		for _, tail := range []int32{2, 3, 4, 5} {
			for i := 0; i < 6; i++ {
				seq = append(seq, 0, 1, tail, tail)
			}
		}
	}
	g := grammar.New()
	for _, e := range seq {
		g.Append(e)
	}
	tr := &model.Trace{Grammar: g.Freeze(), Events: []string{"a", "b", "c", "d", "e", "f"}}

	const dist = 3
	for _, maxCand := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("cap-%d", maxCand), func(b *testing.B) {
			var correct, total int
			for i := 0; i < b.N; i++ {
				rng := rand.New(rand.NewSource(11))
				p := predictor.New(tr, predictor.Config{MaxCandidates: maxCand, MaxLookahead: maxCand * 4})
				correct, total = 0, 0
				for j := 0; j < len(seq)-dist; j++ {
					if rng.Float64() < 0.15 {
						p.Observe(99) // unexpected event: forces re-anchoring
					}
					p.Observe(seq[j])
					if pred, ok := p.PredictAt(dist); ok {
						total++
						if pred.EventID == seq[j+dist] {
							correct++
						}
					}
				}
			}
			if total > 0 {
				b.ReportMetric(100*float64(correct)/float64(total), "accuracy-pct")
			}
		})
	}
}

// BenchmarkAblation_TimingGranularity compares duration prediction with the
// full per-context timing model against the context-free per-event fallback
// (DESIGN.md ablation 3). The workload has one event occurring in two
// contexts with durations differing by 100x; the metric is the relative
// error of the predicted duration of the fast context.
func BenchmarkAblation_TimingGranularity(b *testing.B) {
	// a b(10ns) c | a b(1000ns) d, repeated.
	var now int64
	rec := pythia.NewRecordOracle(pythia.WithClock(func() int64 { return now }))
	a, bb, c, d := rec.Intern("a"), rec.Intern("b"), rec.Intern("c"), rec.Intern("d")
	th := rec.Thread(0)
	for i := 0; i < 100; i++ {
		th.SubmitAt(a, now)
		now += 10
		th.SubmitAt(bb, now)
		now += 5
		th.SubmitAt(c, now)
		now += 5
		th.SubmitAt(a, now)
		now += 1000
		th.SubmitAt(bb, now)
		now += 5
		th.SubmitAt(d, now)
		now += 5
	}
	ts, err := rec.Finish()
	if err != nil {
		b.Fatal(err)
	}

	measure := func(b *testing.B, strip bool) {
		tr := ts.Trace(0)
		if strip {
			stripped := model.NewTiming()
			stripped.ByEvent = tr.Timing.ByEvent
			tr = &model.Trace{Grammar: tr.Grammar, Events: tr.Events, Timing: stripped}
		}
		var errPct float64
		for i := 0; i < b.N; i++ {
			p := predictor.New(tr, predictor.Config{})
			p.StartAtBeginning()
			// Walk into the fast context: a (first of the cycle).
			p.Observe(int32(a))
			pred, ok := p.PredictDurationUntil(int32(bb), 4)
			if !ok {
				b.Fatal("no duration prediction")
			}
			errPct = (pred.ExpectedNs - 10) / 10 * 100
		}
		b.ReportMetric(errPct, "duration-err-pct")
	}
	b.Run("per-context", func(b *testing.B) { measure(b, false) })
	b.Run("per-event-only", func(b *testing.B) { measure(b, true) })
}

// --- hot-path microbenchmarks ----------------------------------------------
//
// The three per-event paths a runtime system exercises on every key point:
// Submit (record mode), Observe (predict mode) and Observe+PredictAt (the
// steady-state oracle query loop). CI runs them at -benchtime=1x so the code
// cannot rot; the numbers of record come from the repo's benchmark
// (BENCHMARK.json, bench/README.md), which times the same paths.

// hotpathTrace builds a reference trace over the repetitive motif the other
// hot-path benchmarks replay (run-length-friendly, like a real iterative app).
func hotpathTrace(reps int) ([]int32, *model.Trace) {
	var seq []int32
	for i := 0; i < reps; i++ {
		seq = append(seq, 0, 1, 2, 1, 2, 3)
	}
	g := grammar.New()
	for _, e := range seq {
		g.Append(e)
	}
	names := []string{"a", "b", "c", "d"}
	return seq, &model.Trace{Grammar: g.Freeze(), Events: names}
}

// BenchmarkSubmitThroughput measures the record-mode per-event cost
// (Thread.Submit -> recorder -> grammar append, the Table I hot path).
func BenchmarkSubmitThroughput(b *testing.B) {
	o := pythia.NewRecordOracle(pythia.WithoutTimestamps())
	ids := []pythia.ID{
		o.Intern("a"), o.Intern("b"), o.Intern("c"), o.Intern("d"),
	}
	motif := []pythia.ID{ids[0], ids[1], ids[2], ids[1], ids[2], ids[3]}
	th := o.Thread(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		th.Submit(motif[i%len(motif)])
	}
}

// BenchmarkFinish measures the end of a timed recording: Freeze plus the
// replay of the timestamp log through the grammar into the per-context
// timing model (recorder.Finish), over a three-level loop nest of about
// 100 000 events. ns/op divided by the events/op metric is the per-event
// price of finishing.
func BenchmarkFinish(b *testing.B) {
	var now int64
	r := recorder.New(recorder.WithClock(func() int64 { return now }))
	rec := func(id events.ID) {
		r.RecordAt(id, now)
		now += 1000 + now%613
	}
	for outer := 0; outer < 1000; outer++ {
		rec(0)
		for mid := 0; mid < 6; mid++ {
			rec(1)
			for inner := 0; inner < 5; inner++ {
				rec(2)
				rec(3)
				rec(4)
			}
		}
		rec(5)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		finishSink = r.Finish()
	}
	b.ReportMetric(float64(r.EventCount()), "events/op")
}

var finishSink *model.ThreadTrace

// BenchmarkSubmitCheckpointed is BenchmarkSubmitThroughput with crash-safe
// checkpointing enabled: the per-event cost must be indistinguishable — the
// snapshot cadence amortizes the Freeze and all journal I/O happens on the
// background writer, never on the Submit path.
func BenchmarkSubmitCheckpointed(b *testing.B) {
	o := pythia.NewRecordOracle(
		pythia.WithoutTimestamps(),
		pythia.WithCheckpoint(pythia.CheckpointConfig{
			Dir:         b.TempDir(),
			EveryEvents: 50_000,
		}),
	)
	// Registered after TempDir's removal, so it runs before it: the
	// background checkpoint writer has stopped creating journal files by
	// the time the directory is deleted.
	b.Cleanup(o.Close)
	ids := []pythia.ID{
		o.Intern("a"), o.Intern("b"), o.Intern("c"), o.Intern("d"),
	}
	motif := []pythia.ID{ids[0], ids[1], ids[2], ids[1], ids[2], ids[3]}
	th := o.Thread(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		th.Submit(motif[i%len(motif)])
	}
}

// BenchmarkSubmitLearning is BenchmarkSubmitThroughput on an always-on
// learning oracle: every Submit feeds both the serving predictor and the
// shadow recorder, and the epoch scorer runs concurrently on the manager
// goroutine. The per-event cost must stay within a few percent of the sum
// of the two paths it drives (record-mode Submit + predict-mode Observe) —
// candidate materialization, scoring and promotion all happen off the
// Submit path, and the steady-state loop must not allocate.
func BenchmarkSubmitLearning(b *testing.B) {
	rec := pythia.NewRecordOracle(pythia.WithoutTimestamps())
	names := []string{"a", "b", "c", "d"}
	recMotif := []pythia.ID{
		rec.Intern(names[0]), rec.Intern(names[1]), rec.Intern(names[2]),
		rec.Intern(names[1]), rec.Intern(names[2]), rec.Intern(names[3]),
	}
	rt := rec.Thread(0)
	for i := 0; i < 6*1000; i++ {
		rt.Submit(recMotif[i%len(recMotif)])
	}
	ts, err := rec.Finish()
	if err != nil {
		b.Fatal(err)
	}
	o, err := pythia.NewPredictOracle(ts, pythia.Config{},
		pythia.WithOnlineLearning(pythia.LearnPolicy{}, pythia.WithoutTimestamps()))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(o.Close) // stops the lifecycle manager goroutine
	motif := []pythia.ID{
		o.Intern(names[0]), o.Intern(names[1]), o.Intern(names[2]),
		o.Intern(names[1]), o.Intern(names[2]), o.Intern(names[3]),
	}
	th := o.Thread(0)
	th.StartAtBeginning()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		th.Submit(motif[i%len(motif)])
	}
}

// BenchmarkObserveThroughput measures the predict-mode per-event tracking
// cost on a faithful replay (single anchored hypothesis, no queries).
func BenchmarkObserveThroughput(b *testing.B) {
	seq, tr := hotpathTrace(1000)
	p := predictor.New(tr, predictor.Config{})
	p.StartAtBeginning()
	j := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if j == len(seq) {
			j = 0
			p.StartAtBeginning()
		}
		p.Observe(seq[j])
		j++
	}
}

// BenchmarkPredictAtCached measures the steady-state oracle loop: one
// Observe plus one PredictAt(64) per event on a faithful replay — the
// amortized-O(1) case the prediction window serves.
func BenchmarkPredictAtCached(b *testing.B) {
	const dist = 64
	seq, tr := hotpathTrace(1000)
	p := predictor.New(tr, predictor.Config{})
	p.StartAtBeginning()
	j := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if j == len(seq)-dist {
			j = 0
			p.StartAtBeginning()
		}
		p.Observe(seq[j])
		j++
		if _, ok := p.PredictAt(dist); !ok {
			b.Fatal("no prediction on a faithful replay")
		}
	}
}

// BenchmarkThreadDispatch measures concurrent Session.Thread lookups of
// already-created threads (the per-event dispatch of a multi-threaded
// runtime).
func BenchmarkThreadDispatch(b *testing.B) {
	o := pythia.NewRecordOracle(pythia.WithoutTimestamps())
	for tid := int32(0); tid < 64; tid++ {
		o.Thread(tid)
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		tid := int32(0)
		for pb.Next() {
			o.Thread(tid & 63)
			tid++
		}
	})
}

// BenchmarkAblation_ThreadPoolParking compares the paper's parked worker
// pool against GOMP's default spawn-on-grow behaviour under an oscillating
// adaptive thread count (DESIGN.md ablation 4).
func BenchmarkAblation_ThreadPoolParking(b *testing.B) {
	m := ompsim.Pudding()
	drive := func(b *testing.B, disable bool) {
		var ns int64
		for i := 0; i < b.N; i++ {
			rt := ompsim.New(ompsim.Config{MaxThreads: 24, Machine: &m, DisableParking: disable})
			for j := 0; j < 200; j++ {
				// An adaptive policy oscillates the team size; without
				// parking, every widening re-creates the workers.
				rt.SetNumThreads(24)
				rt.Parallel("wide", 60_000, nil)
				rt.SetNumThreads(1)
				rt.Parallel("narrow", 500, nil)
			}
			ns = rt.Now()
			rt.Close()
		}
		b.ReportMetric(float64(ns)/1e6, "virtual-ms")
	}
	b.Run("parked", func(b *testing.B) { drive(b, false) })
	b.Run("spawn-per-growth", func(b *testing.B) { drive(b, true) })
}
