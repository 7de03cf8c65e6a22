package main

// pacer is the open-loop schedule: tick k is due at start + k*period no
// matter how long earlier ticks took. It busy-waits — a sleep's wake-up
// jitter is longer than the period — so the generator owns one core.
type pacer struct {
	now    func() int64 // nanoseconds on any monotonic clock
	start  int64
	period int64
	k      int64
}

// next waits for the next tick's due time and returns it with how late the
// generator itself was: 0 when it had to wait, positive when earlier work
// overran the schedule. Callers measure latency from due, so a stall is
// charged to every tick it delays and not only to the one that stalled.
func (p *pacer) next() (due, late int64) {
	due = p.start + p.k*p.period
	p.k++
	t := p.now()
	for t < due {
		t = p.now()
	}
	return due, t - due
}
