package main

import (
	"fmt"
	"time"

	"repro/internal/apps"
	"repro/pythia/client"
)

// processStart anchors nowNs; every duration in the bench is a difference
// of two nowNs readings, so spans and latency samples share clock reads.
var processStart = time.Now()

// nowNs reads the monotonic clock in nanoseconds since the process began.
func nowNs() int64 { return int64(time.Since(processStart)) }

// Fixed shape of the replay every predicting workload uses.
const (
	queryEvery = 16  // a timed query follows every 16th submitted event
	queryDist  = 16  // distance the serving workloads ask for
	spanBatch  = 256 // sub-microsecond calls are traced as one span per 256
	lapEvents  = 64  // a lap of the in-process predicting replays: an event of an irregular application costs the predictor microseconds
)

// inputs are what a workload replays, made once per run from the seed: the
// stream sets, the reference models recorded from them, the tenant's trace
// file. Making them is the benchmark's work and no part of set-up; what the
// program does to record a model is what record-mix measures.
type inputs struct {
	sets   [][]appStreams
	traces string // serving workloads: the daemon's trace directory
}

// env is what set-up gets: the captured inputs, a scratch directory inside
// the checkout, and the clock its laps go to.
type env struct {
	in   inputs
	dir  string
	laps *lapClock
}

// workload is one named set of inputs and the loop that drives them.
type workload struct {
	name string
	// limitNs is the latency limit ontime_pct holds the workload's blocking
	// call to. Each is a round figure a few times the median measured on
	// the reference host, so the metric watches the tail without sitting
	// on the bulk of the distribution.
	limitNs int32
	// waitDiv divides a latency sample down to one call (predict-mix times
	// its four queries as one burst).
	waitDiv float64
	// waitCap is how many latency samples the timed phase keeps.
	waitCap int
	// kinds is how many kinds of slice the timed phase cycles through, in
	// order, starting with kind 0 (0 means 1). Slices of one kind do equal
	// work; slices of different kinds need not.
	kinds int
	// open marks the open loop: its event rate is the schedule's unless the
	// generator falls behind, and a lap cut short by catching up is no
	// measure of the program, so events_per_s is the rate of the whole phase.
	open bool
	// ungated keeps the workload out of BENCHMARK.json: it runs, is checked
	// and reports like the others, but no change is accepted or refused on
	// its numbers (README.md says why).
	ungated bool
	// capture makes the inputs from the seed; files go under dir.
	capture func(class apps.Class, seed int64, dir string) (inputs, error)
	// setup does what the program needs before its steady state — load the
	// models into oracles, start the daemon, dial, open the tenant, one
	// warm-up pass — marking laps on e.laps as the slices do.
	setup func(e env) (instance, error)
}

// instance is a set-up workload, ready to run slices of its timed phase.
type instance interface {
	// slice runs one equal-work slice and returns the events it completed
	// and the time they took. Work the user would not pay per event
	// (building the next episode's oracle) is left out of the time.
	slice(tr *tracer) (events, ns int64)
	// check verifies the outputs after the timed phase.
	check() error
	// counts exposes the tallies the slices accumulated.
	counts() *tally
	// close releases everything set-up acquired. It is safe to call twice.
	close() error
}

// nDists is how many prediction distances a replay can score at once.
const nDists = 4

// tally is what the slices of one run accumulate.
type tally struct {
	events    int64 // events submitted
	attempted int64 // operations attempted: events, queries, finishes
	failed    int64 // operations that failed (see README: what a failure is)
	notes     []string

	waits  *samples  // the workload's blocking call
	laps   *lapClock // where lap boundaries are marked
	missed int64     // blocking calls that failed: they miss any latency limit
	late   *samples  // open loop only: how late the generator started a tick

	asked, answered int64         // queries issued / answered ok=true
	scored, hits    [nDists]int64 // per distance slot: predictions checked / equal to the actual event
	accSlot         int           // the slot accuracy_pct reports

	promotions, rollbacks, shadowEpochs uint64       // learn-drift lifecycle counters
	client                              client.Stats // serving workloads: the connection's resilience counters
}

// lap marks a lap boundary: the end of a stretch of work that repeats, call
// for call, in every slice of the kind — a few hundred events and their
// queries, short enough to fit between a neighbour's visits to the core.
func (t *tally) lap() { t.laps.mark(len(t.waits.ns)) }

// fail records failed operations with the reason (the first few are kept).
func (t *tally) fail(n int64, format string, args ...any) {
	t.failed += n
	if len(t.notes) < 8 {
		t.notes = append(t.notes, fmt.Sprintf(format, args...))
	}
}

// rearm clears what was tallied so far — except the failures, which stay on
// the record — and sizes the latency buffer for what comes next: the warm-up
// pass, then (from run, so that the bench's own buffer is no part of set-up)
// the timed phase.
func (t *tally) rearm(waitCap int) {
	*t = tally{failed: t.failed, notes: t.notes, accSlot: t.accSlot, waits: newSamples(waitCap), laps: t.laps}
}

// accuracyPct is the share of checked predictions in slot that named the
// event that then happened.
func (t *tally) accuracyPct(slot int) float64 {
	if t.scored[slot] == 0 {
		return 0
	}
	return 100 * float64(t.hits[slot]) / float64(t.scored[slot])
}

var workloads = []workload{
	{name: "record-mix", limitNs: 20_000_000, waitDiv: 1, waitCap: 1 << 18, capture: captureStreams(mix7), setup: setupRecordMix},
	{name: "predict-mix", limitNs: 4 * 1_000, waitDiv: 4, waitCap: 1 << 22, kinds: irregularPairs, capture: capturePredictMix, setup: setupPredictMix},
	{name: "learn-drift", limitNs: 2_000, waitDiv: 1, waitCap: 1 << 22, ungated: true, capture: captureModels(driftApps), setup: setupLearnDrift},
	{name: "serve-unix-sat", limitNs: 100_000, waitDiv: 1, waitCap: 1 << 22, capture: captureTenant, setup: setupServe("unix")},
	{name: "serve-tcp-paced", limitNs: 100_000, waitDiv: 1, waitCap: 1 << 22, open: true, capture: captureTenant, setup: setupServe("tcp")},
	{name: "serve-shm-stream", limitNs: 200_000, waitDiv: 1, waitCap: 1 << 22, capture: captureTenant, setup: setupServe("shm")},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
