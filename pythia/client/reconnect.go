package client

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
)

// Reconnect. A transport failure anywhere in the client funnels into
// disconnectLocked, which latches the first cause, strips the fast paths
// (rings, write buffer), and starts one background goroutine that redials
// the address list with jittered exponential backoff. An established
// replacement connection tries to resume the parked server sessions with
// the previous handshake's token; if the server refuses (window expired,
// daemon restarted, resume disabled) it reopens everything from scratch.
// Either way each thread is marked needReplay, and the next time its
// submitting goroutine enters the client it replays the unacknowledged
// tail of its shadow buffer — the server's per-session applied counter
// makes the replay idempotent, so the server-side model converges to the
// exact submitted stream.

// disconnect is disconnectLocked for callers without the lock.
func (c *Client) disconnect(err error) {
	c.mu.Lock()
	c.disconnectLocked(err)
	c.mu.Unlock()
}

// disconnectLocked flips a connected client into the reconnecting state:
// it latches err as the outage cause (first failure wins), closes the dead
// connection, strips every thread's shared-memory fast path, and spawns
// the reconnect goroutine. Repeated failures while already reconnecting
// (or after Close) change nothing. Caller holds c.mu.
func (c *Client) disconnectLocked(err error) {
	if c.state.Load() != stateConnected {
		return
	}
	c.cause = err
	c.state.Store(stateReconnecting)
	_ = c.conn.NC.Close()
	// Drop the shared-memory tier. The old segment's mapping is leaked on
	// purpose: a submitting goroutine may be mid-TryPush into a stale ring
	// pointer, and writing into an orphaned mapping is harmless while
	// writing into an unmapped one is a fault. Events pushed there are
	// re-delivered by the shadow replay.
	c.shm.Store(nil)
	for _, o := range c.oracles {
		o.mu.Lock()
		for _, t := range o.threads {
			t.ring.Store(nil)
			t.shmOwner = nil
			t.shmTried.Store(false)
		}
		o.mu.Unlock()
	}
	c.wg.Add(1)
	go c.reconnectLoop()
}

// reconnectLoop redials until the client is reconnected or closed. The
// backoff doubles from ReconnectMinDelay up to maxReconnectDelay, and each
// wait is jittered to half-to-full of the nominal delay so a fleet of
// clients dropped by one daemon restart does not redial in lockstep.
func (c *Client) reconnectLoop() {
	defer c.wg.Done()
	delay := c.cfg.ReconnectMinDelay
	timer := time.NewTimer(jitter(delay))
	defer timer.Stop()
	for {
		select {
		case <-c.quit:
			return
		case <-timer.C:
		}
		if c.tryReconnect() {
			return
		}
		if delay *= 2; delay > maxReconnectDelay {
			delay = maxReconnectDelay
		}
		timer.Reset(jitter(delay))
	}
}

// jitter spreads a nominal backoff delay over [d/2, d).
func jitter(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)))
}

// tryReconnect walks the fallback address list — the same list, in the
// same order, that Dial used — and tries to adopt the first connection
// that completes a handshake. It reports whether the loop should stop
// (reconnected, or the client was closed meanwhile).
func (c *Client) tryReconnect() bool {
	for _, a := range c.addrs {
		nc, network, err := transport.Dial(a, c.cfg.DialTimeout)
		if err != nil {
			continue
		}
		if c.adopt(nc, network) {
			return true
		}
		if c.state.Load() == stateClosed {
			return true
		}
	}
	return c.state.Load() == stateClosed
}

// adopt handshakes a candidate connection and, on success, swaps it in as
// the client's connection, resumes or reopens the server-side sessions,
// and renegotiates the transport tier. It reports whether the reconnect
// loop is done; on failure the candidate is closed and the loop keeps the
// original outage cause.
func (c *Client) adopt(nc net.Conn, network string) bool {
	conn, token, err := handshake(nc, c.cfg)
	if err != nil {
		return false
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.state.Load() == stateClosed {
		_ = nc.Close()
		return true
	}
	oldToken := c.resumeToken
	c.conn, c.network, c.resumeToken = conn, network, token

	resumed := false
	if oldToken != 0 {
		ok, rerr := c.tryResume(oldToken)
		if rerr != nil {
			_ = nc.Close()
			return false
		}
		resumed = ok
	}
	if !resumed {
		if !c.reopenFresh() {
			_ = nc.Close()
			return false
		}
	}
	if c.cfg.SharedMem && network == transport.NetUnix {
		c.negotiateShm()
	}
	c.cause = nil
	c.state.Store(stateConnected)
	c.statReconnects.Add(1)
	return true
}

// tryResume presents the previous connection's token. ok reports whether
// the server handed the parked sessions back; a RemoteError refusal
// (expired window, draining, restarted daemon) is the designed fall-through
// to reopenFresh, while a transport error aborts this candidate
// connection. Caller holds c.mu.
func (c *Client) tryResume(token uint64) (ok bool, err error) {
	var rs wire.Resumed
	if err := c.exchange(wire.TResume, &wire.Uint64{V: token}, &rs); err != nil {
		var re *RemoteError
		if errors.As(err, &re) {
			return false, nil
		}
		return false, err
	}
	// The session count is server-controlled; clamp the map size hint so a
	// hostile frame cannot demand an oversized allocation (entries beyond
	// the hint still insert, just without preallocation).
	hint := len(rs.Sessions)
	if hint > 1024 {
		hint = 1024
	}
	applied := make(map[uint32]uint64, hint)
	for _, r := range rs.Sessions {
		applied[r.Session] = r.Applied
	}
	for _, o := range c.oracles {
		if o.closed {
			continue
		}
		o.mu.Lock()
		// Service restored: a refusal latched during the outage no longer
		// describes this oracle (a recurring one re-latches on replay).
		o.openErr = nil
		for _, t := range o.threads {
			t.inert.Store(false)
			if ap, found := applied[t.sid]; t.opened && found {
				// The session survived with its id and its server-side
				// model state; only the unacknowledged tail needs replay.
				t.needReplay = true
				t.resumeFresh = false
				t.resumeApplied = t.sessBase + ap
			} else {
				// Never opened, or the session was not among the parked
				// ones: reopen from scratch on first producer activity.
				t.opened = false
				t.needReplay = true
				t.resumeFresh = true
			}
		}
		o.mu.Unlock()
	}
	return true, nil
}

// reopenFresh rebuilds the client's server-side state on a connection with
// no parked sessions to adopt: each oracle's tenant-pinning meta session
// is reopened and its event table verified against the one the oracle was
// built with (a restarted daemon serving a different trace would silently
// corrupt interning otherwise). Threads are marked for fresh reopen +
// replay. It reports false only on a transport error — a per-oracle
// refusal degrades that oracle but keeps the connection. Caller holds
// c.mu.
func (c *Client) reopenFresh() bool {
	for _, o := range c.oracles {
		if o.closed {
			continue
		}
		so, err := c.openSession(o.tenant, -1, wire.FlagWantEvents)
		if err != nil {
			var re *RemoteError
			if errors.As(err, &re) {
				o.noteOpenErr(fmt.Errorf("client: reconnect reopen tenant %q: %w", o.tenant, err))
				o.latchThreadsInert()
				continue
			}
			return false
		}
		if !sameEventTable(so.Events, o.eventNames) {
			o.noteOpenErr(fmt.Errorf("client: reconnect: tenant %q event table changed; oracle disabled", o.tenant))
			o.latchThreadsInert()
			continue
		}
		o.meta = so.Session
		o.mu.Lock()
		o.openErr = nil // tenant reopened cleanly; stale refusals don't apply
		for _, t := range o.threads {
			t.inert.Store(false)
			t.opened = false
			t.needReplay = true
			t.resumeFresh = true
		}
		o.mu.Unlock()
	}
	return true
}

// latchThreadsInert fails an oracle's threads open after a reconnect-time
// refusal; their events keep landing in the shadow buffer in case a later
// reconnect restores service.
func (o *Oracle) latchThreadsInert() {
	o.mu.Lock()
	for _, t := range o.threads {
		t.inert.Store(true)
		t.needReplay = false
	}
	o.mu.Unlock()
}

// sameEventTable reports whether a reopened tenant's event table matches
// the one this oracle interned against.
func sameEventTable(got, want []string) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// replayLocked delivers the thread's unacknowledged shadow tail to the
// server after a reconnect. It runs on the submitting goroutine (the only
// reader of the shadow buffer) under c.mu. The pending buffer is cleared
// first — everything in it is, by construction, also in the shadow — and
// then the tail beyond the server's applied counter is replayed in
// chunks; the server skips anything it already applied, so an overlap is
// harmless. Events older than the shadow window are gone and counted as
// dropped.
func (t *Thread) replayLocked(c *Client) {
	t.pmu.Lock()
	t.pending = t.pending[:0]
	t.pmu.Unlock()

	seq := t.shadowSeq
	oldest := uint64(1)
	if n := uint64(len(t.shadow)); t.shadow != nil && seq > n {
		oldest = seq - n + 1
	}

	if t.resumeFresh || !t.opened {
		if seq == 0 && !t.opened {
			// Nothing ever submitted: nothing to reopen or replay.
			t.needReplay = false
			t.resumeFresh = false
			return
		}
		prevBase := t.sessBase
		t.opened = false
		if !t.ensureOpen(c) {
			// Refused or offline again; ensureOpen latched what matters.
			t.needReplay = false
			t.resumeFresh = false
			return
		}
		// Re-anchor: the fresh session's first event is server sequence 1.
		// Never reach back past the previous anchor — events before it
		// belong to a session boundary (StartAtBeginning) the replay must
		// not cross.
		if oldest < prevBase+1 {
			oldest = prevBase + 1
		}
		t.sessBase = oldest - 1
		if t.sessBase > prevBase {
			c.statDropped.Add(t.sessBase - prevBase)
		}
		t.resumeFresh = false
		t.resumeApplied = t.sessBase
	}
	if t.shadow == nil {
		// Shadow disabled: the stream restarts at the current position and
		// everything in flight at the disconnect is dropped (uncounted —
		// without a shadow the client cannot know how much was unacked).
		t.needReplay = false
		return
	}

	start := t.resumeApplied + 1
	if start < oldest {
		c.statDropped.Add(oldest - start)
		start = oldest
	}
	if t.replayBuf == nil && start <= seq {
		t.replayBuf = make([]int32, 0, replayChunk)
	}
	for lo := start; lo <= seq; {
		hi := lo + replayChunk - 1
		if hi > seq {
			hi = seq
		}
		t.replayBuf = t.replayBuf[:0]
		for s := lo; s <= hi; s++ {
			t.replayBuf = append(t.replayBuf, t.shadow[(s-1)&t.shadowMask])
		}
		var done wire.SessionApplied
		if c.call(wire.TReplay, &wire.Replay{Session: t.sid, Base: lo - t.sessBase, IDs: t.replayBuf}, &done) != nil {
			// Disconnected again mid-replay (or refused): keep needReplay
			// so the next reconnect picks up from the server's counter.
			return
		}
		t.resumeApplied = t.sessBase + done.Applied
		lo = hi + 1
	}
	t.needReplay = false
}
