//go:build unix

package server

import (
	"syscall"
	"testing"
	"time"

	"repro/internal/wire"
)

// BenchmarkShmPacedPush pushes one LU rank's events into a ring one at a
// time, each after a fixed gap of busy compute, the way an HPC rank raises
// an event between compute phases; BenchmarkShmRankStream is the opposite
// case, a closed-loop burst. The gaps straddle the idle pump's stages:
// 50 µs and 200 µs land while it naps, 2 ms after it has armed the bell.
// It reports what a push costs the producer (push_ns/event, the timer
// reads included), the share of events the daemon had applied by the time
// the next one arrived (applied_pct), and the CPU the process spent beyond
// the producer's own busy core, as a share of one core (pump_cpu_pct).
func BenchmarkShmPacedPush(b *testing.B) {
	dir, stream := luRankTrace(b)
	_, tcpAddr, _ := startServerTransports(b, Config{TraceDir: dir})
	for _, gap := range []time.Duration{50 * time.Microsecond, 200 * time.Microsecond, 2 * time.Millisecond} {
		b.Run("gap="+gap.String(), func(b *testing.B) {
			rc := dialRaw(b, tcpAddr)
			reg := regFor(b, rc, "lu")
			ids := make([]int32, len(stream))
			for i, name := range stream {
				ids[i] = int32(reg[name])
			}
			sid := rc.openSession("lu", 0, wire.FlagStartAtBeginning)
			rings, _ := rawShm(b, rc, 1024, sid)
			ring := &rings[0]
			rc.ask(wire.TSubscribe, &wire.Subscribe{Session: sid, Horizon: 16, Every: 16}, &wire.SessionRef{})

			var push time.Duration
			applied := 0
			start, cpu0 := time.Now(), processCPU(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for t0 := time.Now(); time.Since(t0) < gap; {
				}
				if ring.Pending() == 0 {
					applied++
				}
				t0 := time.Now()
				if !ring.TryPush(ids[i%len(ids)]) {
					b.Fatal("ring full")
				}
				push += time.Since(t0)
			}
			b.StopTimer()
			wall, cpu := time.Since(start), processCPU(b)-cpu0
			n := float64(b.N)
			b.ReportMetric(float64(push.Nanoseconds())/n, "push_ns/event")
			b.ReportMetric(100*float64(applied)/n, "applied_pct")
			b.ReportMetric(100*float64(cpu-wall)/float64(wall), "pump_cpu_pct")
		})
	}
}

// processCPU returns the user and system CPU time this process has used.
func processCPU(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
