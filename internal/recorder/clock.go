package recorder

import (
	"sync"
	"time"
)

// The default clock — what New records with unless WithClock or
// WithoutTimestamps says otherwise — reads the CPU's time-stamp counter and
// scales the tick count to nanoseconds on each read: one RDTSC and one
// float multiply per event, where a monotonic clock read through the vDSO
// costs about twice as much. The counter stands for time only where it is
// invariant (it ticks at one rate whatever the core's power state), so
// the platform decides which clock New uses: on amd64 with an invariant
// counter and a plausible calibrated rate, the counter; anywhere else,
// monoClock. Either way a Clock returns monotonic nanoseconds, so RecordAt,
// checkpoints, Finish and trace files cannot tell them apart.

// monoClock is the runtime's monotonic clock as nanoseconds since the call.
// It is the default clock where the counter cannot be used, and the
// reference the counter clock is tested against.
func monoClock() Clock {
	base := time.Now()
	return func() int64 { return int64(time.Since(base)) }
}

// defaultClock returns the clock New records with by default.
func defaultClock() Clock {
	rate := tscNsPerTick()
	if rate == 0 {
		return monoClock()
	}
	base := ticks()
	// The difference is read as signed: a thread that migrates to a core
	// whose counter lags by a few ticks reads a slightly negative time,
	// never a wrapped one (RecordAt clamps a negative delta to zero).
	return func() int64 { return int64(float64(int64(ticks()-base)) * rate) }
}

const (
	// maxAnchorWidth bounds the two monotonic reads around a tick read; a
	// wider pair was preempted or migrated between the reads and is retried.
	maxAnchorWidth = 5 * time.Microsecond
	// anchorTries bounds those retries. Monotonic reads that never fit in
	// maxAnchorWidth mean a slow clock source, which a kernel picks when it
	// does not trust the counter: the recorder does not either.
	anchorTries = 100
	// minCalibration is the shortest interval the rate is measured over.
	minCalibration = time.Millisecond
	// rateTolerance bounds the calibrated rate's relative error: the
	// interval is stretched until the anchors' uncertainty (half of each
	// one's width) is at most this share of it.
	rateTolerance = 1e-4
	// A rate outside [minNsPerTick, maxNsPerTick] — a counter slower than
	// 50 MHz or faster than 20 GHz — is not a working invariant counter.
	minNsPerTick = 0.05
	maxNsPerTick = 20
)

// tscAnchor pairs a tick count with the monotonic time it was read at.
type tscAnchor struct {
	ns    int64 // midpoint of the monotonic reads around the tick read
	width int64 // distance between those reads; ns is off by at most half
	ticks uint64
}

// epoch is the origin of nanotime.
var epoch = time.Now()

func nanotime() int64 { return int64(time.Since(epoch)) }

// readAnchor reads the counter between two monotonic reads, retrying a
// read that was preempted; ok is false when no try fits maxAnchorWidth.
func readAnchor() (a tscAnchor, ok bool) {
	for i := 0; i < anchorTries; i++ {
		t0 := nanotime()
		tk := ticks()
		t1 := nanotime()
		if w := t1 - t0; w <= int64(maxAnchorWidth) {
			return tscAnchor{ns: t0 + w/2, width: w, ticks: tk}, true
		}
	}
	return tscAnchor{}, false
}

// initAnchor is the calibration's first anchor, taken at package init so
// that a process that records after running for a millisecond calibrates
// without waiting.
var initAnchor, initAnchorOK = func() (tscAnchor, bool) {
	if !invariantTSC() {
		return tscAnchor{}, false
	}
	return readAnchor()
}()

// tscNsPerTick is the counter's rate in nanoseconds per tick, measured once
// per process on first use; 0 selects monoClock.
var tscNsPerTick = sync.OnceValue(func() float64 {
	return calibrate(initAnchor, initAnchorOK)
})

// calibrate measures nanoseconds per tick from a to an anchor read now,
// spinning until the interval is long enough for rateTolerance. It
// returns 0 when a is missing, an anchor cannot be read, or the rate is
// implausible.
func calibrate(a tscAnchor, ok bool) float64 {
	if !ok {
		return 0
	}
	for {
		b, ok := readAnchor()
		if !ok {
			return 0
		}
		span := b.ns - a.ns
		if span < int64(minCalibration) || float64(a.width+b.width)/2 > rateTolerance*float64(span) {
			continue
		}
		if b.ticks <= a.ticks {
			return 0
		}
		rate := float64(span) / float64(b.ticks-a.ticks)
		if rate < minNsPerTick || rate > maxNsPerTick {
			return 0
		}
		return rate
	}
}
