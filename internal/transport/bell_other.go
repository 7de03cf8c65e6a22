//go:build !linux

package transport

import "time"

// bellWait naps where there is no futex to block on: the consumer sleeps at
// most parkMaxSleep and looks at its rings again, so a push waits for the
// nap to end rather than for a wake. Before it arms the bell the consumer
// has napped in short steps (nap) for a while; this is the long step that
// follows, the end of the ladder Park climbs.
func bellWait(w *uint32, d time.Duration) { time.Sleep(min(d, parkMaxSleep)) }

// bellWake has nothing to wake: the napping consumer wakes on its own.
func bellWake(w *uint32) {}

// nap is time.Sleep. The millisecond floor Park's doc measures comes from
// the Linux netpoller; how long a short sleep lasts here is not measured.
func nap(d time.Duration) { time.Sleep(d) }
