package ompsim

import (
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/pythia"
)

// small indirections so the real-clock test reads cleanly.
func timeNow() int64               { return time.Now().UnixNano() }
func pythiaRecord() *pythia.Oracle { return pythia.NewRecordOracle() }
func pythiaPredict(ts *pythia.TraceSet) (*pythia.Oracle, error) {
	return pythia.NewPredictOracle(ts, pythia.Config{})
}

// syntheticApp drives rt with a mix of small and large parallel regions, the
// shape the paper's LULESH exhibits (many small regions plus a few heavy
// ones per time step).
func syntheticApp(rt *Runtime, steps int) {
	for s := 0; s < steps; s++ {
		rt.Parallel("calcForces", 2_000_000, nil) // heavy: ~2ms single-core
		for k := 0; k < 5; k++ {
			rt.Parallel("smallFixup", 2_000, nil) // tiny: ~2µs single-core
		}
		rt.Parallel("applyConstraints", 60_000, nil)
		rt.Sequential(5_000, nil)
	}
}

func TestRealModeExecutesBody(t *testing.T) {
	rt := New(Config{MaxThreads: 4})
	defer rt.Close()
	var count atomic.Int64
	var maxSeen atomic.Int64
	rt.Parallel("r", 0, func(tid, n int) {
		count.Add(1)
		if int64(n) > maxSeen.Load() {
			maxSeen.Store(int64(n))
		}
	})
	if count.Load() != 4 || maxSeen.Load() != 4 {
		t.Fatalf("body ran %d times with team %d, want 4/4", count.Load(), maxSeen.Load())
	}
}

// TestVirtualForCoversRangeSequentially holds virtual mode to running a
// region's body once per team member, in thread order on the calling
// goroutine, while the cost model advances the clock.
func TestVirtualForCoversRangeSequentially(t *testing.T) {
	m := Pudding()
	rt := New(Config{MaxThreads: 8, Machine: &m})
	defer rt.Close()
	var order []int
	rt.Parallel("loop", 500, func(tid, n int) {
		if n != 8 {
			t.Errorf("team of %d, want 8", n)
		}
		order = append(order, tid)
	})
	if want := []int{0, 1, 2, 3, 4, 5, 6, 7}; !slices.Equal(order, want) {
		t.Fatalf("bodies ran for tids %v, want %v", order, want)
	}
	if rt.Now() <= 0 {
		t.Fatal("virtual clock did not advance")
	}
}

func TestVirtualClockDeterministic(t *testing.T) {
	run := func() int64 {
		m := Pixel()
		rt := New(Config{MaxThreads: 16, Machine: &m})
		defer rt.Close()
		syntheticApp(rt, 20)
		return rt.Now()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("virtual clock not deterministic: %d vs %d", a, b)
	}
}

func TestMachineModelShape(t *testing.T) {
	m := Pudding()
	small := int64(2_000)
	large := int64(2_000_000)
	// Small regions are faster on one thread than on 24.
	if m.RegionNs(small, 1) >= m.RegionNs(small, 24) {
		t.Fatalf("small region: 1 thread %d ns, 24 threads %d ns — overhead model broken",
			m.RegionNs(small, 1), m.RegionNs(small, 24))
	}
	// Large regions are faster on 24 threads than on one.
	if m.RegionNs(large, 24) >= m.RegionNs(large, 1) {
		t.Fatalf("large region: 24 threads %d ns, 1 thread %d ns — speedup model broken",
			m.RegionNs(large, 24), m.RegionNs(large, 1))
	}
	// Threads beyond the core count only add overhead.
	if m.RegionNs(large, 48) <= m.RegionNs(large, 24) {
		t.Fatal("oversubscription should not be faster")
	}
}

// TestAdaptiveBeatsVanilla is the heart of the paper's section III-D: record
// a reference execution with the maximum thread count, then re-run with
// Pythia-guided adaptive thread selection and check the virtual execution
// time drops, because the many small regions stop paying 24-thread fork/join
// overhead.
func TestAdaptiveBeatsVanilla(t *testing.T) {
	m := Pudding()
	const steps = 30

	// Vanilla run.
	vanilla := New(Config{MaxThreads: 24, Machine: &m})
	syntheticApp(vanilla, steps)
	vanillaNs := vanilla.Now()
	vanilla.Close()

	// Reference (recorded) run — paper's PYTHIA-RECORD, max threads. The
	// runtime supplies explicit virtual timestamps through SubmitAt, so the
	// recorded timing model is in virtual nanoseconds.
	rec := pythia.NewRecordOracle()
	recRT := New(Config{MaxThreads: 24, Machine: &m, Oracle: rec})
	syntheticApp(recRT, steps)
	recNs := recRT.Now()
	recRT.Close()
	ts, err := rec.Finish()
	if err != nil {
		t.Fatal(err)
	}

	// Recording must not change the virtual duration at all.
	if recNs != vanillaNs {
		t.Fatalf("recording changed virtual time: %d vs %d", recNs, vanillaNs)
	}

	// Adaptive run under PYTHIA-PREDICT.
	oracle, err := pythia.NewPredictOracle(ts, pythia.Config{})
	if err != nil {
		t.Fatal(err)
	}
	adaptive := New(Config{MaxThreads: 24, Machine: &m, Oracle: oracle, Adaptive: true})
	syntheticApp(adaptive, steps)
	adaptiveNs := adaptive.Now()
	st := adaptive.Stats()
	adaptive.Close()

	if st.Predictions == 0 {
		t.Fatal("adaptive runtime never queried the oracle")
	}
	if st.PredictionMisses > st.Predictions/4 {
		t.Fatalf("too many prediction misses: %+v", st)
	}
	if adaptiveNs >= vanillaNs {
		t.Fatalf("adaptive (%d ns) not faster than vanilla (%d ns)", adaptiveNs, vanillaNs)
	}
	improvement := 1 - float64(adaptiveNs)/float64(vanillaNs)
	t.Logf("vanilla %.2fms, adaptive %.2fms, improvement %.1f%%, mean threads %.1f",
		float64(vanillaNs)/1e6, float64(adaptiveNs)/1e6,
		improvement*100, float64(st.ThreadsSum)/float64(st.Regions))
	if improvement < 0.05 {
		t.Fatalf("improvement only %.1f%%, expected a clear win", improvement*100)
	}
}

// TestErrorInjectionDegrades reproduces the shape of Fig 14: with a high
// error rate, adaptive performance degrades towards vanilla because
// predictions fail and the runtime falls back to maximum threads.
func TestErrorInjectionDegrades(t *testing.T) {
	m := Pudding()
	const steps = 30

	record := func() *pythia.TraceSet {
		rec := pythia.NewRecordOracle()
		rt := New(Config{MaxThreads: 24, Machine: &m, Oracle: rec})
		syntheticApp(rt, steps)
		rt.Close()
		ts, err := rec.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return ts
	}
	run := func(ts *pythia.TraceSet, errRate float64) int64 {
		oracle, err := pythia.NewPredictOracle(ts, pythia.Config{})
		if err != nil {
			t.Fatal(err)
		}
		rt := New(Config{MaxThreads: 24, Machine: &m, Oracle: oracle,
			Adaptive: true, ErrorRate: errRate, Seed: 7})
		syntheticApp(rt, steps)
		defer rt.Close()
		return rt.Now()
	}

	ts := record()
	clean := run(ts, 0)
	noisy := run(ts, 0.9)
	if noisy <= clean {
		t.Fatalf("90%% error rate (%d ns) not slower than clean (%d ns)", noisy, clean)
	}
}

func TestParkingAblation(t *testing.T) {
	// With adaptive thread counts oscillating, the non-parking runtime pays
	// thread re-spawn cost repeatedly in the virtual model.
	m := Pudding()
	drive := func(disableParking bool) int64 {
		rt := New(Config{MaxThreads: 24, Machine: &m, DisableParking: disableParking})
		defer rt.Close()
		for i := 0; i < 100; i++ {
			// Alternate between wide and narrow regions, as an adaptive
			// policy would.
			rt.runVirtual(50_000, 24, nil)
			rt.runVirtual(1_000, 1, nil)
		}
		return rt.Now()
	}
	parked := drive(false)
	unparked := drive(true)
	if unparked <= parked {
		t.Fatalf("non-parking (%d ns) should be slower than parking (%d ns)", unparked, parked)
	}
}

func TestDefaultThresholdsRespectMax(t *testing.T) {
	for _, max := range []int{1, 2, 4, 8, 24} {
		for _, th := range DefaultThresholds(max) {
			if th.Threads >= max {
				t.Fatalf("threshold %+v exceeds max %d", th, max)
			}
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	rt := New(Config{MaxThreads: 2})
	defer rt.Close()
	for i := 0; i < 10; i++ {
		rt.Parallel("r", 0, nil)
	}
	st := rt.Stats()
	if st.Regions != 10 || st.ThreadsSum != 20 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestAdaptiveRealClock exercises the full adaptive loop on the wall clock:
// record a run of small regions, then re-run adaptively. On any host, the
// adaptive run must not be substantially slower than vanilla (it drops
// worker dispatch for overhead-dominated regions); exact speedups are host
// dependent, so the assertion is lenient.
func TestAdaptiveRealClock(t *testing.T) {
	app := func(rt *Runtime) {
		for i := 0; i < 200; i++ {
			rt.Parallel("tiny", 0, func(tid, n int) {})
		}
	}
	vanilla := New(Config{MaxThreads: 8})
	start := timeNow()
	app(vanilla)
	vanillaNs := timeNow() - start
	vanilla.Close()

	rec := pythiaRecord()
	recRT := New(Config{MaxThreads: 8, Oracle: rec})
	app(recRT)
	recRT.Close()
	ts, err := rec.Finish()
	if err != nil {
		t.Fatal(err)
	}

	oracle, err := pythiaPredict(ts)
	if err != nil {
		t.Fatal(err)
	}
	ad := New(Config{MaxThreads: 8, Oracle: oracle, Adaptive: true,
		Thresholds: []Threshold{{MaxNs: 1_000_000, Threads: 1}}})
	start = timeNow()
	app(ad)
	adNs := timeNow() - start
	st := ad.Stats()
	ad.Close()

	if st.Predictions == 0 {
		t.Fatal("no predictions in adaptive real-clock run")
	}
	if st.Regions != 200 {
		t.Fatalf("regions = %d", st.Regions)
	}
	// Mean threads must have dropped for the tiny regions.
	if mean := float64(st.ThreadsSum) / float64(st.Regions); mean > 4 {
		t.Fatalf("adaptive mean threads %.1f, expected a drop below max 8", mean)
	}
	if adNs > vanillaNs*3 {
		t.Fatalf("adaptive run pathologically slower: %v vs %v", adNs, vanillaNs)
	}
}

func TestSetNumThreads(t *testing.T) {
	rt := New(Config{MaxThreads: 8})
	defer rt.Close()
	var team atomic.Int64
	rt.SetNumThreads(3)
	rt.Parallel("r", 0, func(tid, n int) { team.Store(int64(n)) })
	if team.Load() != 3 {
		t.Fatalf("team = %d, want 3", team.Load())
	}
	rt.SetNumThreads(99) // clamped
	rt.Parallel("r", 0, func(tid, n int) { team.Store(int64(n)) })
	if team.Load() != 8 {
		t.Fatalf("team = %d, want clamp to 8", team.Load())
	}
	rt.SetNumThreads(0) // restore default
	rt.Parallel("r", 0, func(tid, n int) { team.Store(int64(n)) })
	if team.Load() != 8 {
		t.Fatalf("team = %d, want 8", team.Load())
	}
}
