// Command bench is the repository's benchmark: six workloads — record,
// predict, learn, and the three serving tiers — each set up, run for a
// fixed time, checked, and reported as one JSON object. BENCHMARK.json at
// the root of the repository names the metrics; README.md here explains
// them.
//
//	bash bench/run.sh --workload serve-unix-sat --seed 42 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/apps"
)

// runConfig is what one run is asked to do.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	setups   int        // set-up is repeated at least this often; setup_s is the median
	setupFor float64    // seconds: a cheap set-up is repeated until this much is spent (maxSetups times at most)
	class    apps.Class // working set of the captured applications
	workDir  string     // scratch directory, inside the checkout
	outDir   string     // where a traced run writes its spans
	log      io.Writer  // human-readable detail
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line a run prints.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// maxSetups caps how often a cheap set-up is repeated.
const maxSetups = 25

// defaultSeconds is the length of a run's timed phase when --seconds is not
// given; BENCHMARK.json's run_seconds is the same figure.
const defaultSeconds = 20

func main() {
	os.Exit(mainExit(os.Args[1:], os.Stdout, os.Stderr))
}

func mainExit(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name      = fs.String("workload", "", "workload to run, or \"all\" (see BENCHMARK.json)")
		seed      = fs.Int64("seed", 42, "seed the inputs are generated from")
		seconds   = fs.Float64("seconds", defaultSeconds, "length of the timed phase, in seconds")
		trace     = fs.Int("trace", 0, "1: traced run — spans, layer probes, per-layer metrics")
		summarize = fs.String("summarize", "", "read result lines on stdin and summarise them against this BENCHMARK.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *summarize != "" {
		if err := summarise(*summarize, os.Stdin, stdout); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	// One generator goroutine and one serving goroutine must each have a
	// core, or the serving workloads measure the scheduler.
	if runtime.GOMAXPROCS(0) < 2 {
		fmt.Fprintln(stderr, "bench: GOMAXPROCS < 2: the generator and the daemon would share a core")
		return 1
	}
	names := []string{*name}
	if *name == "all" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	for _, n := range names {
		cfg := runConfig{
			workload: n, seed: *seed, seconds: *seconds, trace: *trace != 0,
			setups: 5, setupFor: 1.5, class: apps.Medium, workDir: ".bench_build", outDir: filepath.Join("bench", "out"), log: stderr,
		}
		rep, err := run(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", n, err)
			return 1
		}
		line, err := json.Marshal(rep)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
		if !rep.Correct {
			return 1
		}
	}
	return 0
}

// scratch makes the run's private directory under the work directory and
// returns it with its remover. The path stays relative: a unix socket's
// address has room for about a hundred bytes.
func scratch(workDir string) (string, func(), error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return "", nil, err
	}
	dir, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		return "", nil, err
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}

// run sets the workload up, drives its timed phase, checks the outputs and
// assembles the report. An error means the run could not be made at all; a
// run that ran but failed its checks comes back with Correct false.
func run(cfg runConfig) (*report, error) {
	w, ok := workloadByName(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	dir, remove, err := scratch(cfg.workDir)
	if err != nil {
		return nil, err
	}
	defer remove()
	// A signal must not leave sockets, segments or the daemon behind.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		if _, ok := <-sigs; ok {
			remove()
			os.Exit(1)
		}
	}()
	defer func() {
		signal.Stop(sigs)
		close(sigs)
	}()

	// The inputs, once: streams, reference models, the tenant's trace file.
	// Making them is the benchmark's work and no part of set-up.
	in, err := w.capture(cfg.class, cfg.seed, dir)
	if err != nil {
		return nil, fmt.Errorf("making the inputs: %w", err)
	}
	// Set-up, several times, in laps like the slices: a set-up takes from a
	// tenth of a second to seconds, so on this host every one of them meets
	// the neighbour somewhere; each lap's fastest repeat did not. The last
	// instance is the one timed.
	clock := &lapClock{}
	var inst instance
	var setupLaps lapTable
	var setupS []float64
	for i, begun := 0, time.Now(); i < cfg.setups || (i < maxSetups && time.Since(begun).Seconds() < cfg.setupFor); i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, fmt.Errorf("closing set-up %d: %w", i, err)
			}
		}
		sub := filepath.Join(dir, fmt.Sprintf("s%d", i))
		if err := os.Mkdir(sub, 0o755); err != nil {
			return nil, err
		}
		clock.restart(0)
		if inst, err = w.setup(env{in: in, dir: sub, laps: clock}); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		clock.mark(0)
		setupS = append(setupS, float64(clock.marks[len(clock.marks)-1].at-clock.marks[0].at)/1e9)
		if !setupLaps.add(clock.marks, nil, 0) {
			return nil, fmt.Errorf("set-up %d has %d laps, the first had %d", i, len(clock.marks)-1, setupLaps.laps)
		}
	}
	defer inst.close()
	setupNs, _, _ := setupLaps.quiet(quietQuantile)
	inst.counts().rearm(w.waitCap)

	// The timed phase: equal-work slices until the time is up. A traced
	// run spends half its time here (every other cycle through the kinds
	// of slice traced) and the other half on the layer probes.
	phase := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		phase /= 2
	}
	tr := newTracer()
	t := inst.counts()
	// Per untraced slice: its event rate and, by kind of slice, what each of
	// its laps took.
	kinds := max(w.kinds, 1)
	var plain, traced []float64
	var plainEvents, plainNs int64
	tables := make([]lapTable, kinds)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for n, start := 0, time.Now(); time.Since(start) < phase || len(plain) < 2*kinds; n++ {
		kind := n % kinds
		tr.on = cfg.trace && (n/kinds)%2 == 1
		clock.restart(len(t.waits.ns))
		if tr.on {
			tr.begin("slice")
		}
		events, ns := inst.slice(tr)
		if tr.on {
			tr.end(events)
		}
		if events == 0 {
			break // the slice could not run; its failure is in the tally
		}
		rate := float64(events) / (float64(ns) / 1e9)
		if tr.on {
			traced = append(traced, rate)
			continue
		}
		plain = append(plain, rate)
		plainEvents, plainNs = plainEvents+events, plainNs+ns
		if !tables[kind].add(clock.marks, t.waits.ns, events) {
			return nil, fmt.Errorf("slice %d has %d laps, the first of its kind had %d: the slices do not do equal work", n, len(clock.marks)-1, tables[kind].laps)
		}
	}
	if len(plain) < kinds {
		return nil, fmt.Errorf("the timed phase could not run: %s", strings.Join(t.notes, "; "))
	}
	tr.on = false
	runtime.ReadMemStats(&after)
	allocsPerKevent := 1000 * float64(after.Mallocs-before.Mallocs) / float64(max(t.events, 1))
	// Every lap at the fast twentieth of its repeats stands for the run: on a
	// shared host a neighbour only ever slows a lap down, so the fast end
	// repeats from run to run where the middle follows the neighbour. The lap
	// tables go before the heap is measured.
	quietRate, quietWaitNs := quietCycle(tables, quietQuantile)
	midRate, midWaitNs := quietCycle(tables, 0.5)
	if w.open {
		quietRate = float64(plainEvents) / (float64(plainNs) / 1e9)
	}
	laps := 0
	for i := range tables {
		laps += tables[i].laps
	}
	tables = nil
	runtime.GC()
	runtime.GC() // the second collection empties what sync.Pool kept through the first
	runtime.ReadMemStats(&after)

	if err := inst.check(); err != nil {
		t.fail(1, "output check: %v", err)
	}

	// The heap without the bench's own latency buffers, which are larger than
	// anything the program holds.
	benchBytes := 4 * uint64(cap(t.waits.ns))
	if t.late != nil {
		benchBytes += 4 * uint64(cap(t.late.ns))
	}
	rep := &report{Attempted: t.attempted, Failed: t.failed, Metrics: make(map[string]metric)}
	rep.Correct = t.failed == 0 && t.attempted > 0
	waits := t.waits.sorted()
	sort.Float64s(plain)
	e2e := map[string]float64{
		"events_per_s": quietRate,
		"wait_mid_us":  quietWaitNs / w.waitDiv / 1e3,
		"ontime_pct":   withinPct(waits, w.limitNs, t.missed),
		"accuracy_pct": t.accuracyPct(t.accSlot),
		"live_heap_mb": float64(after.HeapAlloc-benchBytes) / (1 << 20),
		"setup_s":      setupNs / 1e9,
	}
	waitP50 := groupedMedian(waits) / w.waitDiv / 1e3
	tailP, tailV := tailPercentile(waits)
	fmt.Fprintf(cfg.log, "%s seed %d: %d slices, %d laps a cycle; events/s with every lap at its fast twentieth (open loop: of the whole phase) %.0f, at its median %.0f, of a whole slice q1 %.0f median %.0f q3 %.0f; wait with every lap at its fast twentieth %.4f µs, at its median %.4f µs; %d waits, p50 %.3f p90 %.3f p99 %.3f p%g %.3f µs; set-up with every lap at its fastest %.3f s, as run %.3f s; %.1f allocs/kevent; %d attempted, %d failed\n",
		w.name, cfg.seed, len(plain), laps, quietRate, midRate, quantile(plain, 0.25), quantile(plain, 0.5), quantile(plain, 0.75),
		e2e["wait_mid_us"], midWaitNs/w.waitDiv/1e3, len(waits), waitP50,
		percentile(waits, 0.9)/w.waitDiv/1e3, percentile(waits, 0.99)/w.waitDiv/1e3, 100*tailP, tailV/w.waitDiv/1e3, setupNs/1e9, setupS, allocsPerKevent, t.attempted, t.failed)
	if t.waits.dropped > 0 {
		fmt.Fprintf(cfg.log, "%s: latency buffer full, %d samples not kept\n", w.name, t.waits.dropped)
	}
	for _, n := range t.notes {
		fmt.Fprintf(cfg.log, "%s: FAILED: %s\n", w.name, n)
	}

	values := e2e
	if cfg.trace {
		layer := map[string]float64{
			"bench.submit_ns":          submitNs(tr),
			"bench.slice_events_per_s": quantile(plain, 0.5),
			"bench.wait_p50_us":        waitP50,
			"bench.wait_p99_us":        percentile(waits, 0.99) / w.waitDiv / 1e3,
			"bench.gen_late_p99_us":    0,
			"bench.answered_pct":       100 * float64(t.answered) / float64(max(t.asked, 1)),
			"bench.allocs_per_kevent":  allocsPerKevent,
			"bench.slice_self_pct":     tr.selfShare("slice", "slice"),
			"bench.trace_overhead_pct": 100 * (1 - median(traced)/quantile(plain, 0.5)),
			"client.reconnects":        float64(t.client.Reconnects),
			"client.dropped_events":    float64(t.client.DroppedEvents),
			"client.retry_later":       float64(t.client.RetryLater),
			"core.promotions":          float64(t.promotions),
			"core.rollbacks":           float64(t.rollbacks),
			"core.shadow_epochs":       float64(t.shadowEpochs),
		}
		if t.late != nil {
			layer["bench.gen_late_p99_us"] = percentile(t.late.sorted(), 0.99) / 1e3
		}
		if err := runProbes(cfg.class, cfg.seed, dir, phase, layer); err != nil {
			return nil, fmt.Errorf("layer probes: %w", err)
		}
		for _, name := range []string{"pythia.record_unattributed_pct", "client.rtt_unattributed_pct"} {
			if layer[name] > 25 {
				fmt.Fprintf(cfg.log, "%s: warning: %s is %.1f %% — the layer probes explain less than three quarters of the call\n", w.name, name, layer[name])
			}
		}
		path, err := tr.dump(cfg.outDir, w.name, cfg.seed, map[string]int64{
			"events": t.events, "attempted": t.attempted, "failed": t.failed,
			"asked": t.asked, "answered": t.answered,
			"scored": t.scored[t.accSlot], "hits": t.hits[t.accSlot],
		})
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(cfg.log, "%s: %d spans (%d kept) -> %s\n", w.name, tr.next, len(tr.kept), path)
		values = layer
	}
	for name, v := range values {
		rep.Metrics[name] = metric{Value: v, Unit: units[name]}
	}
	return rep, nil
}

// submitNs is the traced time per submitted event, over whichever submit
// span the workload makes.
func submitNs(tr *tracer) float64 {
	for _, name := range []string{"pythia.Intern+Submit", "pythia.Lookup+Submit", "client.Intern+Submit", "client.Intern+Submit+Latest"} {
		if a := tr.agg[name]; a != nil && a.N > 0 {
			return float64(a.SelfNs) / float64(a.N)
		}
	}
	return 0
}

// benchmarkFile is BENCHMARK.json as far as this program reads it.
type benchmarkFile struct {
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// summarise reads result lines (one JSON report per line, as runs print
// them) and prints, per metric, the median, the quartiles and the spread —
// the distance between the quartiles as a share of the median — with the
// verdict against the metric's bound in BENCHMARK.json.
func summarise(benchmarkPath string, in io.Reader, out io.Writer) error {
	blob, err := os.ReadFile(benchmarkPath)
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(blob, &bf); err != nil {
		return fmt.Errorf("%s: %w", benchmarkPath, err)
	}
	bounds := make(map[string]float64)
	for _, m := range bf.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	values := make(map[string][]float64)
	unitOf := make(map[string]string)
	dec := json.NewDecoder(in)
	runs := 0
	for {
		var rep report
		if err := dec.Decode(&rep); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return fmt.Errorf("reading results: %w", err)
		}
		runs++
		if !rep.Correct || rep.Failed != 0 {
			fmt.Fprintf(out, "run %d: correct=%v failed=%d of %d\n", runs, rep.Correct, rep.Failed, rep.Attempted)
		}
		for name, m := range rep.Metrics {
			values[name] = append(values[name], m.Value)
			unitOf[name] = m.Unit
		}
	}
	names := make([]string, 0, len(values))
	for n := range values {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "%d runs\n%-40s %14s %14s %14s %8s  %s\n", runs, "metric", "q1", "median", "q3", "spread", "verdict")
	for _, n := range names {
		q1, med, q3 := quartiles(values[n])
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / med
		}
		verdict := ""
		if b, ok := bounds[n]; ok {
			switch {
			case spread <= b/3:
				verdict = fmt.Sprintf("steady (bound %.3g)", b)
			case spread <= b:
				verdict = fmt.Sprintf("inside bound %.3g, above a third of it", b)
			default:
				verdict = fmt.Sprintf("WIDER THAN BOUND %.3g", b)
			}
		}
		fmt.Fprintf(out, "%-40s %14.6g %14.6g %14.6g %7.2f%%  %s %s\n", n, q1, med, q3, 100*spread, unitOf[n], verdict)
	}
	return nil
}
