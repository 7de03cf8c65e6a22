package recorder

import (
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/events"
)

// clocks are the two clocks New may pick; every check below holds for both.
var clocks = []struct {
	name string
	new  func() Clock
}{
	{"default", defaultClock},
	{"mono", monoClock},
}

func TestDefaultClockReadsCounter(t *testing.T) {
	if runtime.GOARCH != "amd64" || !invariantTSC() {
		t.Skip("no invariant time-stamp counter: the default clock is monoClock")
	}
	rate := tscNsPerTick()
	if rate == 0 {
		t.Fatal("invariant counter present, but calibration fell back to monoClock")
	}
	t.Logf("%.4f ns/tick (%.3f GHz)", rate, 1/rate)
}

// TestClockTracksMonotonic holds each clock's elapsed time over a busy
// 20 ms interval to time.Since within 0.1 %. An attempt the scheduler
// preempts between two paired reads is retried; a miscalibrated rate
// misses on every attempt.
func TestClockTracksMonotonic(t *testing.T) {
	const (
		interval = 20 * time.Millisecond
		bound    = 1e-3
		attempts = 3
	)
	for _, c := range clocks {
		t.Run(c.name, func(t *testing.T) {
			clk := c.new()
			best := math.Inf(1)
			for i := 0; i < attempts && best > bound; i++ {
				c0 := clk()
				t0 := time.Now()
				for time.Since(t0) < interval {
				}
				want := time.Since(t0)
				got := clk() - c0
				best = math.Min(best, math.Abs(float64(got)-float64(want))/float64(want))
			}
			if best > bound {
				t.Fatalf("elapsed time off time.Since by %.4f %% at best of %d, want <= %.2f %%", 100*best, attempts, 100*bound)
			}
			t.Logf("off time.Since by %.4f %%", 100*best)
		})
	}
}

// TestClockMonotonicAcrossThreads hands a reading back and forth 1 000
// times between two goroutines locked to different OS threads; a reading
// taken after receiving one must not be smaller.
func TestClockMonotonicAcrossThreads(t *testing.T) {
	const handoffs = 1000
	for _, c := range clocks {
		t.Run(c.name, func(t *testing.T) {
			clk := c.new()
			ping, pong := make(chan int64), make(chan int64)
			done := make(chan struct{})
			go func() {
				defer close(done)
				runtime.LockOSThread()
				defer runtime.UnlockOSThread()
				for prev := range ping {
					now := clk()
					if now < prev {
						t.Errorf("read %d on the second thread after %d on the first", now, prev)
					}
					pong <- now
				}
			}()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			for i := 0; i < handoffs; i++ {
				ping <- clk()
				prev := <-pong
				if now := clk(); now < prev {
					t.Errorf("read %d on the first thread after %d on the second", now, prev)
				}
			}
			close(ping)
			<-done
		})
	}
}

// TestCalibrateRejects holds the fallback rule: a missing anchor, a counter
// that does not advance, or a rate no invariant counter has selects
// monoClock (rate 0).
func TestCalibrateRejects(t *testing.T) {
	a, ok := readAnchor()
	if !ok {
		t.Skip("no anchor fits maxAnchorWidth on this host")
	}
	stalled, slow, fast := a, a, a
	stalled.ticks = math.MaxUint64
	slow.ns -= int64(time.Second) // a second of time for a millisecond of ticks
	fast.ticks = 0                // every tick since reset in a millisecond
	for _, tc := range []struct {
		name string
		a    tscAnchor
		ok   bool
	}{
		{"no anchor", tscAnchor{}, false},
		{"stalled", stalled, true},
		{"too slow", slow, true},
		{"too fast", fast, true},
	} {
		if rate := calibrate(tc.a, tc.ok); rate != 0 {
			t.Errorf("%s: calibrate = %g ns/tick, want 0", tc.name, rate)
		}
	}
}

// TestRecordZeroAlloc: reading the clock allocates nothing, so Record on
// the default clock stays allocation-free in steady state (the delta log's
// amortised growth aside).
func TestRecordZeroAlloc(t *testing.T) {
	for _, c := range clocks {
		t.Run(c.name, func(t *testing.T) {
			r := New(WithClock(c.new()))
			i := 0
			record := func() {
				r.Record(events.ID(i % 3))
				i++
			}
			for i < 1<<12 {
				record()
			}
			if n := testing.AllocsPerRun(10_000, record); n != 0 {
				t.Fatalf("Record allocates %.2f times per event, want 0", n)
			}
		})
	}
}

var clockSink int64

// BenchmarkClock prices one clock read: the default clock against
// monoClock, the vDSO read it replaces where the counter is usable.
func BenchmarkClock(b *testing.B) {
	for _, c := range clocks {
		b.Run(c.name, func(b *testing.B) {
			clk := c.new()
			for i := 0; i < b.N; i++ {
				clockSink += clk()
			}
		})
	}
}
