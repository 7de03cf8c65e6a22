// Package harness drives the paper's evaluation (section III): it runs the
// 13 applications on the simulated runtimes in vanilla / record / predict
// configurations and regenerates every table and figure — Table I (record
// overhead), Fig. 7 (BT grammar), Fig. 8 (prediction accuracy vs distance),
// Fig. 9 (prediction cost vs distance), Figs. 10-13 (LULESH with adaptive
// thread counts vs problem size and vs maximum threads), and Fig. 14
// (resilience to unexpected events). cmd/pythia-paper and the repository
// benchmarks are thin wrappers around this package.
package harness

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/mpisim"
	"repro/internal/ompsim"
	"repro/pythia"
)

// Summary aggregates repeated duration measurements.
type Summary struct {
	Min, Max, Mean time.Duration
	N              int
}

// Summarise reduces samples to min/max/mean (the paper reports all three).
func Summarise(samples []time.Duration) Summary {
	if len(samples) == 0 {
		return Summary{}
	}
	s := Summary{Min: samples[0], Max: samples[0], N: len(samples)}
	var total time.Duration
	for _, d := range samples {
		if d < s.Min {
			s.Min = d
		}
		if d > s.Max {
			s.Max = d
		}
		total += d
	}
	s.Mean = total / time.Duration(len(samples))
	return s
}

// MPIRun is one execution of an MPI (or hybrid) application.
type MPIRun struct {
	// Wall is the measured wall-clock duration of the run.
	Wall time.Duration
	// Trace is the recorded trace set (nil for vanilla runs).
	Trace *pythia.TraceSet
}

// The evaluation's fixed seeds: the reference (recorded) execution runs
// with recordSeed and every replayed execution with replaySeed. Distinct
// seeds model run-to-run variation in the data-dependent applications (AMG,
// Quicksilver), as on a real machine.
const recordSeed, replaySeed = 42, 43

// RunMPIApp executes one application in vanilla mode (record=false) or under
// PYTHIA-RECORD (record=true). Hybrid applications get a per-rank OpenMP
// runtime; when recording, its region events interleave into the rank's
// event stream exactly as the paper's combined MPI+OpenMP runtimes do.
//
// The oracle is harness-owned and a Finish failure (the oracle degrading
// mid-run after a contained panic) invalidates the experiment, so it panics.
// Tools that own their oracle — and must turn failures into exit codes, not
// stack traces — use RunMPIAppWithOracle instead.
func RunMPIApp(app apps.App, class apps.Class, record bool, seed int64) MPIRun {
	return runRanks(app, class, record, seed, app.Ranks)
}

// RunMPIAppWithOracle executes one application under PYTHIA-RECORD against a
// caller-supplied record-mode oracle, so the caller controls recording
// options (timestamps, budgets, crash-safe checkpointing). A Finish failure
// — e.g. the oracle degraded after containing an internal panic — comes back
// as an error carrying the health cause, never as a panic.
func RunMPIAppWithOracle(oracle *pythia.Oracle, app apps.App, class apps.Class, seed int64) (MPIRun, error) {
	return runApp(app, class, seed, app.Ranks, oracle)
}

// runRanks is RunMPIApp on an explicit number of ranks.
func runRanks(app apps.App, class apps.Class, record bool, seed int64, ranks int) MPIRun {
	var oracle *pythia.Oracle
	if record {
		oracle = pythia.NewRecordOracle(pythia.WithoutTimestamps())
	}
	run, err := runApp(app, class, seed, ranks, oracle)
	if err != nil {
		panic(fmt.Sprintf("pythia: internal: harness: record-mode Finish failed: %v", err))
	}
	return run
}

// runApp is the one path that executes an application: on ranks processes,
// vanilla when oracle is nil and recorded into oracle otherwise.
func runApp(app apps.App, class apps.Class, seed int64, ranks int, oracle *pythia.Oracle) (MPIRun, error) {
	w := mpisim.NewWorld(ranks)
	body := appBody(app, class, seed, oracle)
	start := time.Now()
	if oracle == nil {
		w.Run(body)
		return MPIRun{Wall: time.Since(start)}, nil
	}
	w.RunInterposed(func(m mpisim.MPI) mpisim.MPI {
		return mpisim.NewInterposer(m, oracle)
	}, body)
	wall := time.Since(start)

	ts, err := oracle.Finish()
	if err != nil {
		if h := oracle.Health(); h.Cause != "" {
			err = fmt.Errorf("%w (health: %s, cause: %s)", err, h.State, h.Cause)
		}
		return MPIRun{Wall: wall}, err
	}
	return MPIRun{Wall: wall, Trace: ts}, nil
}

// mustFinish finalises a record-mode oracle the harness created itself for
// an experiment, where a degraded oracle invalidates the run. Tool-facing
// paths go through RunMPIAppWithOracle and its error return instead.
func mustFinish(o *pythia.Oracle) *pythia.TraceSet {
	ts, err := o.Finish()
	if err != nil {
		panic(fmt.Sprintf("pythia: internal: harness: record-mode Finish failed: %v", err))
	}
	return ts
}

// appBody builds the per-rank body closure of a vanilla (oracle == nil) or
// recorded run.
func appBody(app apps.App, class apps.Class, seed int64, oracle *pythia.Oracle) func(mpisim.MPI) {
	return func(m mpisim.MPI) {
		ctx := &apps.Context{MPI: m, Class: class, Seed: seed}
		if app.Hybrid {
			cfg := ompsim.Config{MaxThreads: 2}
			if oracle != nil {
				cfg.Oracle = oracle
				cfg.ThreadID = int32(m.Rank())
			}
			rt := ompsim.New(cfg)
			defer rt.Close()
			ctx.OMP = rt
		}
		app.Run(ctx)
	}
}

// CaptureStreams records one run of the application and returns, per rank,
// the full event descriptor stream (unfolded from the recorded grammar).
// This is how the evaluation replays an execution with one working set
// against the trace of another.
func CaptureStreams(app apps.App, class apps.Class, seed int64) map[int32][]string {
	return streamsOf(RunMPIApp(app, class, true, seed).Trace)
}

// streamsOf unfolds every rank of a recorded trace into its event
// descriptor stream.
func streamsOf(ts *pythia.TraceSet) map[int32][]string {
	out := make(map[int32][]string, len(ts.Threads))
	for tid, th := range ts.Threads {
		ids := th.Grammar.Unfold()
		stream := make([]string, len(ids))
		for i, id := range ids {
			stream[i] = ts.Events[id]
		}
		out[tid] = stream
	}
	return out
}

// IsBlockingEvent reports whether a descriptor names one of the blocking MPI
// entry points at which the paper's runtime queries the oracle (MPI_Wait and
// friends plus blocking collectives).
func IsBlockingEvent(name string) bool {
	for _, p := range []string{
		"MPI_Wait", "MPI_Waitall", "MPI_Barrier", "MPI_Allreduce",
		"MPI_Reduce", "MPI_Bcast", "MPI_Alltoall", "MPI_Allgather",
		"MPI_Gather", "MPI_Recv",
	} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// reportWriter accumulates the first write error of a report rendering so
// the Write* helpers can print unconditionally and surface I/O failures
// once, through their return value.
type reportWriter struct {
	w   io.Writer
	err error
}

func (rw *reportWriter) printf(format string, args ...any) {
	if rw.err == nil {
		_, rw.err = fmt.Fprintf(rw.w, format, args...)
	}
}

func (rw *reportWriter) println(args ...any) {
	if rw.err == nil {
		_, rw.err = fmt.Fprintln(rw.w, args...)
	}
}

// table renders aligned columns.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) write(rw *reportWriter) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		rw.println(strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
}

// sortedThreadIDs returns map keys in ascending order.
func sortedThreadIDs[T any](m map[int32]T) []int32 {
	out := make([]int32, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
