package ompsim

import (
	"math/rand"
	"sync"
	"time"

	"repro/pythia"
)

// Threshold maps a predicted region duration to a thread count: regions
// predicted to last less than MaxNs run with Threads threads. The paper's
// modified GOMP uses exactly this ladder ("1 thread if D_est < t1, 4 threads
// if D_est < t4, …").
type Threshold struct {
	MaxNs   int64
	Threads int
}

// DefaultThresholds returns a ladder calibrated against the virtual machine
// models: regions cheaper than a few fork/join overheads get few threads.
func DefaultThresholds(maxThreads int) []Threshold {
	ladder := []Threshold{
		{MaxNs: 8_000, Threads: 1},
		{MaxNs: 30_000, Threads: 4},
		{MaxNs: 120_000, Threads: 8},
	}
	out := ladder[:0]
	for _, t := range ladder {
		if t.Threads < maxThreads {
			out = append(out, t)
		}
	}
	return out
}

// Config configures a Runtime.
type Config struct {
	// MaxThreads is the maximum (and default) thread count per region.
	MaxThreads int
	// Machine selects virtual mode when non-nil; otherwise regions execute
	// for real on a goroutine pool and time is wall time.
	Machine *MachineModel
	// DisableParking reverts to GOMP's default behaviour of destroying
	// spurious threads when the count shrinks (ablation; the paper parks).
	DisableParking bool
	// Oracle attaches Pythia (nil runs vanilla, un-instrumented).
	Oracle *pythia.Oracle
	// ThreadID keys the oracle thread handle. Hybrid MPI+OpenMP ranks set
	// it to their MPI rank so that a rank's OpenMP region events interleave
	// into the same per-thread grammar as its MPI events, as in the paper.
	ThreadID int32
	// Adaptive asks the oracle for the predicted region duration and picks
	// the thread count from Thresholds. Requires a predicting Oracle.
	Adaptive bool
	// Thresholds overrides DefaultThresholds when non-empty.
	Thresholds []Threshold
	// PredictHorizon bounds the look-ahead of duration queries (default 8).
	PredictHorizon int
	// ErrorRate injects a random unexpected event before each region with
	// this probability (the resilience experiment of section III-E).
	ErrorRate float64
	// Seed seeds the error-injection generator.
	Seed int64
}

// Stats summarises a run.
type Stats struct {
	// Regions is the number of parallel regions executed.
	Regions int64
	// ThreadsSum accumulates the thread count chosen per region
	// (ThreadsSum/Regions is the mean degree of parallelism).
	ThreadsSum int64
	// Predictions and PredictionMisses count adaptive oracle queries and
	// the ones that produced no usable answer.
	Predictions      int64
	PredictionMisses int64
	// SpawnedWorkers is how many worker threads were ever created (real
	// mode) or modelled (virtual mode).
	SpawnedWorkers int64
	// InjectedErrors counts noise events submitted (section III-E).
	InjectedErrors int64
}

// Runtime is one OpenMP-like runtime instance driven by a single master
// goroutine (regions themselves may fan out to workers).
type Runtime struct {
	cfg        Config
	machine    *MachineModel
	thresholds []Threshold

	vnow  int64     // virtual clock (virtual mode)
	epoch time.Time // real-mode epoch

	pool  *pool
	alive int // modelled live workers (virtual mode)

	th     *pythia.Thread
	ids    map[string]regionIDs
	forced int
	rng    *rand.Rand
	stat   Stats

	mu sync.Mutex // protects ids (regions may be named dynamically)
}

// regionIDs caches the interned begin/end events of one region.
type regionIDs struct {
	begin pythia.ID
	end   pythia.ID
}

// New creates a runtime. Close must be called to release pool workers in
// real mode.
func New(cfg Config) *Runtime {
	if cfg.MaxThreads < 1 {
		cfg.MaxThreads = 1
	}
	if cfg.PredictHorizon <= 0 {
		cfg.PredictHorizon = 8
	}
	rt := &Runtime{
		cfg:        cfg,
		machine:    cfg.Machine,
		thresholds: cfg.Thresholds,
		epoch:      time.Now(),
		pool:       newPool(!cfg.DisableParking),
		ids:        make(map[string]regionIDs),
		rng:        rand.New(rand.NewSource(cfg.Seed + 1)),
	}
	if len(rt.thresholds) == 0 {
		if cfg.Machine != nil {
			rt.thresholds = ThresholdsFromModel(*cfg.Machine, cfg.MaxThreads)
		} else {
			rt.thresholds = DefaultThresholds(cfg.MaxThreads)
		}
	}
	if cfg.Oracle != nil {
		rt.th = cfg.Oracle.Thread(cfg.ThreadID)
	}
	return rt
}

// Close releases pool workers.
func (rt *Runtime) Close() {
	rt.stat.SpawnedWorkers = int64(rt.pool.spawnedWorkers())
	if rt.machine != nil {
		rt.stat.SpawnedWorkers = int64(rt.alive)
	}
	rt.pool.close()
}

// Stats returns run statistics.
func (rt *Runtime) Stats() Stats {
	s := rt.stat
	if rt.machine != nil {
		s.SpawnedWorkers = int64(rt.alive)
	} else {
		s.SpawnedWorkers = int64(rt.pool.spawnedWorkers())
	}
	return s
}

// Now returns nanoseconds since the start of the run on the runtime's clock
// (virtual in virtual mode, wall otherwise).
func (rt *Runtime) Now() int64 {
	if rt.machine != nil {
		return rt.vnow
	}
	return int64(time.Since(rt.epoch))
}

// MaxThreads returns the configured thread-count ceiling.
func (rt *Runtime) MaxThreads() int { return rt.cfg.MaxThreads }

// SetNumThreads pins the team size of subsequent regions, like
// omp_set_num_threads (clamped to MaxThreads). Zero restores the default
// policy (maximum threads, or the adaptive choice when enabled).
func (rt *Runtime) SetNumThreads(n int) { rt.forced = n }

// regionEvents interns (once) the begin/end events of a region.
func (rt *Runtime) regionEvents(name string) regionIDs {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if ids, ok := rt.ids[name]; ok {
		return ids
	}
	o := rt.cfg.Oracle
	ids := regionIDs{
		begin: o.Intern("GOMP_parallel_start." + name),
		end:   o.Intern("GOMP_parallel_end." + name),
	}
	rt.ids[name] = ids
	return ids
}

// chooseThreads implements the adaptive policy: predict how long the region
// will take (time until its end event) and walk the threshold ladder. When
// the oracle has no usable prediction the runtime falls back to the maximum,
// exactly like the heuristic it replaces.
func (rt *Runtime) chooseThreads(ids regionIDs) int {
	rt.stat.Predictions++
	pred, ok := rt.th.PredictDurationUntil(ids.end, rt.cfg.PredictHorizon)
	if !ok || pred.ExpectedNs <= 0 {
		rt.stat.PredictionMisses++
		return rt.cfg.MaxThreads
	}
	for _, th := range rt.thresholds {
		if int64(pred.ExpectedNs) < th.MaxNs {
			if th.Threads < rt.cfg.MaxThreads {
				return th.Threads
			}
			return rt.cfg.MaxThreads
		}
	}
	return rt.cfg.MaxThreads
}

// Parallel executes one parallel region. name identifies the region (the
// paper uses the outlined function pointer); work is the region's total work
// in abstract units (used by the virtual cost model); body, when non-nil,
// is executed as tid 0..n-1 of an n-thread team.
func (rt *Runtime) Parallel(name string, work int64, body func(tid, nthreads int)) {
	threads := rt.cfg.MaxThreads
	var ids regionIDs
	instrumented := rt.cfg.Oracle != nil
	if instrumented {
		ids = rt.regionEvents(name)
		rt.th.SubmitAt(ids.begin, rt.Now())
		// Section III-E resilience experiment: randomly submit an event
		// that never occurred in the reference execution. Arriving between
		// the region-begin notification and the prediction query, it leaves
		// the oracle without an answer and forces the runtime back onto its
		// default heuristic (maximum threads) for this region.
		if rt.cfg.ErrorRate > 0 && rt.rng.Float64() < rt.cfg.ErrorRate {
			rt.th.SubmitAt(rt.cfg.Oracle.Intern("noise", int64(rt.rng.Intn(1<<30))), rt.Now())
			rt.stat.InjectedErrors++
		}
		if rt.cfg.Adaptive {
			threads = rt.chooseThreads(ids)
		}
	}
	if rt.forced > 0 {
		threads = rt.forced
		if threads > rt.cfg.MaxThreads {
			threads = rt.cfg.MaxThreads
		}
	}

	rt.stat.Regions++
	rt.stat.ThreadsSum += int64(threads)

	if rt.machine != nil {
		rt.runVirtual(work, threads, body)
	} else {
		rt.pool.run(orNop(body), threads)
	}

	if instrumented {
		rt.th.SubmitAt(ids.end, rt.Now())
	}
}

// runVirtual charges the cost model and (optionally) executes the body
// sequentially for application correctness.
func (rt *Runtime) runVirtual(work int64, threads int, body func(tid, nthreads int)) {
	need := threads - 1
	if need > rt.alive {
		rt.vnow += int64(need-rt.alive) * rt.machine.SpawnPerThreadNs
		rt.alive = need
	} else if rt.cfg.DisableParking && need < rt.alive {
		// GOMP's default destroys spurious threads; they will have to be
		// re-created (and re-paid for) when the count grows again.
		rt.alive = need
	}
	rt.vnow += rt.machine.RegionNs(work, threads)
	if body != nil {
		for tid := 0; tid < threads; tid++ {
			body(tid, threads)
		}
	}
}

// Sequential accounts for single-threaded work between regions: work units
// on the virtual clock, or simply running body in real mode.
func (rt *Runtime) Sequential(work int64, body func()) {
	if rt.machine != nil {
		rt.vnow += rt.machine.SequentialNs(work)
	}
	if body != nil {
		body()
	}
}

func orNop(body func(tid, nthreads int)) func(tid, nthreads int) {
	if body != nil {
		return body
	}
	return func(int, int) {}
}
