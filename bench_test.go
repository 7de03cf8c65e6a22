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
	"repro/internal/grammar"
	"repro/internal/harness"
	"repro/internal/model"
	"repro/internal/ompsim"
	"repro/internal/predictor"
	"repro/pythia"
)

// BenchmarkTable1_RecordOverhead measures PYTHIA-RECORD's overhead on a
// representative regular (BT) and irregular (Quicksilver) application, the
// Table I experiment at benchmark scale. The medium working set keeps the
// compute-to-event ratio representative (the small class is event-dense and
// overstates the relative cost; the full Table I uses large — see
// `pythia-paper -experiment table1`).
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
		rows, err := harness.Fig8(harness.Fig8Config{Apps: []string{"BT"}, Distances: []int{64}})
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
		rows, err := harness.Fig9(harness.Fig9Config{Apps: []string{"CG"}, Distances: []int{64}})
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
// Two per-event paths no package benchmark or bench probe times on their
// own: a checkpointed record-mode Submit and concurrent thread dispatch.
// The numbers of record for the other hot paths come from the repo's
// benchmark (BENCHMARK.json, bench/README.md) and the package benchmarks
// (grammar.BenchmarkAppendApps, model.BenchmarkFinishApps,
// predictor.BenchmarkObserveExactReplay, predictor.BenchmarkPredictAtDistance).

// BenchmarkSubmitCheckpointed measures the record-mode per-event cost
// (Thread.Submit -> recorder -> grammar append) with crash-safe
// checkpointing enabled: it must be indistinguishable from plain recording —
// the snapshot cadence amortizes the Freeze and all journal I/O happens on
// the background writer, never on the Submit path.
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
