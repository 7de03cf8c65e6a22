package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/pythia"
)

func TestQuantileMatchesPythonExclusive(t *testing.T) {
	// statistics.quantiles(values, n=4) on the same inputs.
	cases := []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, [3]float64{1.25, 3.5, 5.75}},
	}
	for _, c := range cases {
		q1, med, q3 := quartiles(c.in)
		if got := [3]float64{q1, med, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if m := median([]float64{4, 1, 3}); m != 3 {
		t.Errorf("median = %v, want 3", m)
	}
	if q1, med, q3 := quartiles(nil); q1 != 0 || med != 0 || q3 != 0 {
		t.Errorf("quartiles(nil) = %v %v %v, want zeros", q1, med, q3)
	}
}

// marksAt builds the lap marks of one slice from its lap durations and the
// latency samples each lap holds, appending those samples to waits.
func marksAt(start int64, laps []int64, perLap [][]int32, waits *[]int32) []lapMark {
	marks := []lapMark{{at: start, waits: len(*waits)}}
	for j, d := range laps {
		start += d
		if perLap != nil {
			*waits = append(*waits, perLap[j]...)
		}
		marks = append(marks, lapMark{at: start, waits: len(*waits)})
	}
	return marks
}

func TestQuietCycleTakesEveryLapAtItsLowQuantile(t *testing.T) {
	// Three slices of two laps. A neighbour slowed lap 0 of the second slice
	// and lap 1 of the third; no slice ran undisturbed from end to end, yet
	// every lap has an undisturbed repeat.
	var waits []int32
	var lt lapTable
	for i, laps := range [][]int64{{100, 300}, {180, 300}, {100, 540}} {
		lat := [][]int32{{10, 10, 10, 10}, nil}
		if i == 1 {
			lat[0] = []int32{18, 18, 18, 18}
		}
		if !lt.add(marksAt(int64(1000*i), laps, lat, &waits), waits, 400) {
			t.Fatalf("slice %d refused", i)
		}
	}
	rate, wait := quietCycle([]lapTable{lt}, quietQuantile)
	if want := 400 / 400e-9; rate != want {
		t.Errorf("rate %v, want %v: 400 events in 100+300 ns", rate, want)
	}
	if wait != 10 {
		t.Errorf("wait %v ns, want 10: lap 1 holds no sample and has no say", wait)
	}
	// At the median the disturbed repeats are still outvoted; the slowest
	// repeat of every lap is what a mean would have been pulled towards.
	if rate, _ := quietCycle([]lapTable{lt}, 0.5); rate != 400/400e-9 {
		t.Errorf("median rate %v", rate)
	}
	if rate, wait := quietCycle([]lapTable{lt}, 0.99); rate != 400/720e-9 || wait != 18 {
		t.Errorf("slowest repeats: rate %v wait %v, want %v and 18", rate, wait, 400/720e-9)
	}
	// A slice with another number of laps did other work and is refused.
	if lt.add(marksAt(0, []int64{100}, nil, &waits), waits, 400) {
		t.Error("a slice of one lap was added to a table of two-lap slices")
	}
	// Two kinds of slice make one cycle: their events and their times add,
	// however many slices each kind has, and a lap's latency weighs by the
	// samples it holds.
	var other lapTable
	for range 5 {
		other.add(marksAt(0, []int64{600}, [][]int32{{30, 30, 30, 30, 30, 30, 30, 30, 30, 30, 30, 30}}, &waits), waits, 100)
	}
	rate, wait = quietCycle([]lapTable{lt, other}, quietQuantile)
	if want := 500 / 1000e-9; rate != want {
		t.Errorf("two kinds: rate %v, want %v", rate, want)
	}
	if want := (4*10.0 + 12*30.0) / 16; wait != want {
		t.Errorf("two kinds: wait %v, want %v", wait, want)
	}
}

func TestLatencyStatistics(t *testing.T) {
	// 1..1000 ns, one sample each.
	s := newSamples(1000)
	for i := 1000; i >= 1; i-- {
		s.add(int64(i))
	}
	sorted := s.sorted()
	if !sort.SliceIsSorted(sorted, func(i, j int) bool { return sorted[i] < sorted[j] }) {
		t.Fatal("sorted() is not sorted")
	}
	if got := percentile(sorted, 0.99); got != 990 {
		t.Errorf("p99 = %v, want 990", got)
	}
	// 1000 samples leave 10 beyond p99 and 1 beyond p99.9.
	if p, v := tailPercentile(sorted); p != 0.99 || v != 990 {
		t.Errorf("tailPercentile = p%v %v, want p0.99 990", p, v)
	}
	if p, _ := tailPercentile(sorted[:50]); p != 0.5 {
		t.Errorf("tailPercentile of 50 samples = p%v, want p0.5", p)
	}
	// 250 of 1000 samples are within 250 ns; 1000 more calls never answered.
	if got := withinPct(sorted, 250, 1000); got != 12.5 {
		t.Errorf("withinPct = %v, want 12.5", got)
	}
	// The buffer never grows: samples past the cap are counted, not kept.
	s.add(7)
	if len(s.ns) != 1000 || s.dropped != 1 {
		t.Errorf("after overflow: kept %d, dropped %d", len(s.ns), s.dropped)
	}
	// A duration that does not fit the sample is clamped, not wrapped.
	big := newSamples(1)
	big.add(1 << 40)
	if big.ns[0] != math.MaxInt32 {
		t.Errorf("oversized sample stored as %d", big.ns[0])
	}
}

func TestGroupedMedianInterpolatesInsideTheBin(t *testing.T) {
	// Ten samples: 3×100, 4×101, 3×102. The median bin is 101, holding the
	// 4th to 7th sample; half of the samples lie below 100.5 + 2/4.
	in := []int32{100, 100, 100, 101, 101, 101, 101, 102, 102, 102}
	if got := groupedMedian(in); got != 101 {
		t.Errorf("symmetric: %v, want 101", got)
	}
	// Shift one sample from 102 to 100: the median moves down inside the bin.
	in = []int32{100, 100, 100, 100, 101, 101, 101, 101, 102, 102}
	if got := groupedMedian(in); got != 100.75 {
		t.Errorf("skewed: %v, want 100.75", got)
	}
}

// selfTimes recomputes every span's self time from the spans alone, as a
// reader of the dump would: the span's duration minus the union of its
// children's intervals, clipped to the span.
func selfTimes(spans []span) map[int32]int64 {
	kids := make(map[int32][]span)
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	self := make(map[int32]int64, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, edge := int64(0), s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, edge), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

func TestSpanSelfTimeOnHandBuiltTree(t *testing.T) {
	// root [0,100] has children a [10,40] and b [50,90]; a has child c
	// [20,30]; b's child d [80,95] runs past its parent and is clipped.
	clock := []int64{0, 10, 20, 30, 40, 50, 80, 95, 90, 100}
	tr := newTracer()
	tr.on = true
	tr.now = func() int64 { v := clock[0]; clock = clock[1:]; return v }
	tr.begin("root")
	tr.begin("a")
	tr.begin("c")
	tr.end(1)
	tr.end(1)
	tr.begin("b")
	tr.begin("d")
	tr.end(1)
	tr.end(1)
	tr.end(1)

	want := map[string]int64{"root": 100 - 30 - 40, "a": 30 - 10, "c": 10, "b": 40 - 10, "d": 15}
	self := selfTimes(tr.kept)
	for _, s := range tr.kept {
		if self[s.ID] != want[s.Name] {
			t.Errorf("selfTimes: %s = %d, want %d", s.Name, self[s.ID], want[s.Name])
		}
		if s.Req != 1 {
			t.Errorf("%s: request %d, want 1 (all spans under one root share it)", s.Name, s.Req)
		}
	}
	// The running sums subtract a child's whole duration, so they agree
	// with the interval arithmetic wherever children stay inside parents.
	for _, name := range []string{"root", "a", "c"} {
		if got := tr.agg[name].SelfNs; got != want[name] {
			t.Errorf("running self time of %s = %d, want %d", name, got, want[name])
		}
	}
	if got := tr.selfShare("root", "root"); got != 30 {
		t.Errorf("selfShare(root) = %v, want 30", got)
	}
	// A second root starts a second request.
	tr.now = func() int64 { return 200 }
	tr.begin("root")
	tr.end(1)
	if last := tr.kept[len(tr.kept)-1]; last.Req != 2 || last.Parent != -1 {
		t.Errorf("second root: request %d parent %d", last.Req, last.Parent)
	}
}

func TestPacerChargesAStallToLaterTicks(t *testing.T) {
	// A fake clock that advances 10 ns per reading; a tick is due every
	// 100 ns and its op takes 20 ns, except that tick 2's stalls for 350 more.
	now := int64(-50)
	p := &pacer{now: func() int64 { now += 10; return now }, start: 0, period: 100}
	var lates, latencies []int64
	for k := 0; k < 10; k++ {
		due, late := p.next()
		if due != int64(k)*100 {
			t.Errorf("tick %d due at %d: the schedule moved with the stall", k, due)
		}
		if k == 2 {
			now += 350
		}
		now += 20
		lates, latencies = append(lates, late), append(latencies, now-due)
	}
	// The stalled tick started on time; the four ticks behind it start late
	// by what is left of the stall — the generator regains 70 ns per tick —
	// and a latency taken from the due time carries that wait.
	wantLate := []int64{0, 0, 0, 280, 210, 140, 70, 0, 0, 0}
	for k := range wantLate {
		want := wantLate[k] + 20
		if k == 2 {
			want += 350
		}
		if lates[k] != wantLate[k] || latencies[k] != want {
			t.Errorf("tick %d: late %d latency %d, want %d and %d", k, lates[k], latencies[k], wantLate[k], want)
		}
	}
}

func TestDigest(t *testing.T) {
	// word is FNV-1a over the word's little-endian bytes.
	d := fnvOffset
	d.word(0x0123456789abcdef)
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], 0x0123456789abcdef)
	h.Write(b[:])
	if uint64(d) != h.Sum64() {
		t.Errorf("word: %016x, hash/fnv gives %016x", uint64(d), h.Sum64())
	}
	// Every field of an answer reaches the digest, and so does the order.
	of := func(prs []pythia.Prediction, oks []bool) digest {
		d := fnvOffset
		for i := range prs {
			d.add(prs[i], oks[i])
		}
		return d
	}
	a := pythia.Prediction{EventID: 3, ExpectedNs: 1.5}
	b2 := pythia.Prediction{EventID: 4, ExpectedNs: 1.5}
	base := of([]pythia.Prediction{a, b2}, []bool{true, true})
	if base != of([]pythia.Prediction{a, b2}, []bool{true, true}) {
		t.Error("equal replays digest differently")
	}
	for name, other := range map[string]digest{
		"event":    of([]pythia.Prediction{{EventID: 5, ExpectedNs: 1.5}, b2}, []bool{true, true}),
		"expected": of([]pythia.Prediction{{EventID: 3, ExpectedNs: math.Nextafter(1.5, 2)}, b2}, []bool{true, true}),
		"ok":       of([]pythia.Prediction{a, b2}, []bool{true, false}),
		"order":    of([]pythia.Prediction{b2, a}, []bool{true, true}),
	} {
		if other == base {
			t.Errorf("digest blind to a change of %s", name)
		}
	}
}

// readBenchmarkFile loads ../BENCHMARK.json with every key it may hold.
func readBenchmarkFile(t *testing.T) (f struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds float64  `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	benchmarkFile
}) {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return f
}

func TestBenchmarkFileMatchesTheProgram(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.EndToEnd) != len(endToEnd) || len(f.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, the program reports %d+%d",
			len(f.EndToEnd), len(f.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		m := f.EndToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, program has %+v", i, m, d)
		}
	}
	for i, d := range perLayer {
		m := f.PerLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, program has %+v", i, m, d)
		}
	}
	var gated []string
	for _, w := range workloads {
		if !w.ungated {
			gated = append(gated, w.name)
		}
	}
	if len(f.Workloads) != len(gated) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program gates %d", len(f.Workloads), len(gated))
	}
	for i, name := range gated {
		if f.Workloads[i].Name != name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, f.Workloads[i].Name, name)
		}
	}
	if f.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %v, the program's default is %v", f.RunSeconds, float64(defaultSeconds))
	}
	if len(f.Paths) != 1 || f.Paths[0] != "bench" {
		t.Errorf("paths = %v", f.Paths)
	}
}

// TestSmokeEveryWorkload runs every workload briefly on the small class,
// untraced and traced, and holds the reported names against BENCHMARK.json.
func TestSmokeEveryWorkload(t *testing.T) {
	f := readBenchmarkFile(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name := w.name
			want := make(map[string]string)
			if traced {
				name += "/traced"
				for _, m := range f.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range f.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			t.Run(name, func(t *testing.T) {
				if raceEnabled && w.name == "serve-tcp-paced" {
					t.Skip("under the race detector the generator cannot keep a 64 µs schedule")
				}
				out := t.TempDir()
				rep, err := run(runConfig{
					workload: w.name, seed: 7, seconds: 0.2, trace: traced, setups: 1,
					class: apps.Small, workDir: t.TempDir(), outDir: out, log: io.Discard,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
				}
				for n, m := range rep.Metrics {
					if want[n] != m.Unit {
						t.Errorf("reported %s in %q, BENCHMARK.json says %q", n, m.Unit, want[n])
					}
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("%s = %v", n, m.Value)
					}
				}
				for n := range want {
					if _, ok := rep.Metrics[n]; !ok {
						t.Errorf("%s is in BENCHMARK.json but was not reported", n)
					}
				}
				if !traced {
					for n, m := range rep.Metrics {
						// Under the race detector no call may meet its limit.
						if m.Value <= 0 && !(raceEnabled && n == "ontime_pct") {
							t.Errorf("end-to-end metric %s = %v, must never be 0", n, m.Value)
						}
					}
					return
				}
				// Spans nest on one clock: a slice's self time is a share of it.
				if v := rep.Metrics["bench.slice_self_pct"].Value; v < 0 || v > 100 {
					t.Errorf("bench.slice_self_pct = %v", v)
				}
				blob, err := os.ReadFile(filepath.Join(out, "trace-"+w.name+".json"))
				if err != nil {
					t.Fatal(err)
				}
				var dump traceDump
				if err := json.Unmarshal(blob, &dump); err != nil {
					t.Fatal(err)
				}
				if len(dump.Spans) == 0 || dump.ByName["slice"] == nil {
					t.Errorf("trace dump holds %d spans, by_name %v", len(dump.Spans), dump.ByName)
				}
			})
		}
	}
}

func TestMainRefusesBadInvocations(t *testing.T) {
	var out, errb bytes.Buffer
	if code := mainExit([]string{"--workload", "no-such"}, &out, &errb); code == 0 || out.Len() != 0 {
		t.Errorf("unknown workload: exit %d, stdout %q", code, out.String())
	}
	if !strings.Contains(errb.String(), "no-such") {
		t.Errorf("unknown workload: stderr %q", errb.String())
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	errb.Reset()
	if code := mainExit([]string{"--workload", "record-mix"}, &out, &errb); code == 0 || out.Len() != 0 {
		t.Errorf("GOMAXPROCS=1: exit %d, stdout %q", code, out.String())
	}
	if !strings.Contains(errb.String(), "GOMAXPROCS") {
		t.Errorf("GOMAXPROCS=1: stderr %q", errb.String())
	}
}

func TestSummarise(t *testing.T) {
	var in bytes.Buffer
	for _, v := range []float64{100, 101, 102, 103, 104, 105, 106, 107, 108, 109} {
		line, _ := json.Marshal(report{Correct: true, Attempted: 1, Metrics: map[string]metric{
			"events_per_s": {Value: v, Unit: "1/s"},
			"setup_s":      {Value: v * v, Unit: "s"},
		}})
		in.Write(append(line, '\n'))
	}
	var out bytes.Buffer
	if err := summarise(filepath.Join("..", "BENCHMARK.json"), &in, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	// events_per_s: q1 101.75, median 104.5, q3 107.25 -> spread 5.26 %.
	for _, want := range []string{"10 runs", "101.75", "104.5", "107.25", "5.26%"} {
		if !strings.Contains(got, want) {
			t.Errorf("summary lacks %q:\n%s", want, got)
		}
	}
}
