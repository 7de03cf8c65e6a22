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

// The connect pipeline. Every connection this client ever has is made by
// connect, in five steps that end with the threads marked for replay:
//
//	resolve addrs → dial → handshake → resume-or-open → negotiate shm → mark threads for replay
//	└───── connect ────┘   establish   └─ restore ──┘   └ establish ┘   └────── restore ──────┘
//
// Dial runs it once, synchronously — a first connect is a restore with no
// token, no oracles and no threads. A transport failure anywhere in the
// client funnels into disconnectLocked, which latches the first cause,
// strips the fast paths (rings, write buffer) and starts one background
// goroutine that runs the same pipeline with jittered exponential backoff.
// restore presents the previous handshake's token; whatever sessions the
// server hands back keep their ids and model state, everything else (all
// of it, when the server refuses: window expired, daemon restarted) is
// reopened from scratch. Either way each thread is marked needReplay, and
// the next time its submitting goroutine enters the client it replays the
// unacknowledged tail of its shadow buffer — the server's per-session
// applied counter makes the replay idempotent, so the server-side model
// converges to the exact submitted stream.

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
	c.cause = errors.Join(err, c.conn.NC.Close())
	c.state.Store(stateReconnecting)
	// Drop the shared-memory tier. The old segment's mapping is leaked on
	// purpose: a submitting goroutine may be mid-TryPush into a stale ring
	// pointer, and writing into an orphaned mapping is harmless while
	// writing into an unmapped one is a fault. Events pushed there are
	// re-delivered by the shadow replay.
	c.shm.Store(nil)
	for _, o := range c.oracles {
		for _, t := range o.threadList() {
			t.ring.Store(nil)
			t.shmOwner = nil
			t.shmTried.Store(false)
		}
	}
	c.wg.Add(1)
	go c.reconnectLoop()
}

// reconnectLoop reruns the connect pipeline until the client is connected
// or closed. The backoff doubles from ReconnectMinDelay up to
// maxReconnectDelay, and each wait is jittered to half-to-full of the
// nominal delay so a fleet of clients dropped by one daemon restart does
// not redial in lockstep. The outage keeps its original cause; the errors
// of failed attempts are dropped.
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
		if c.connect() == nil {
			c.statReconnects.Add(1)
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

// connect walks the fallback address list in order and establishes the
// first address that answers. It returns nil once the client is connected;
// otherwise every address's failure, joined.
func (c *Client) connect() error {
	var errs []error
	for _, a := range c.addrs {
		if c.state.Load() == stateClosed {
			return errClosed
		}
		nc, network, err := transport.Dial(a, c.cfg.DialTimeout)
		if err != nil {
			errs = append(errs, fmt.Errorf("client: dialing %s: %w", a, err))
			continue
		}
		if err = c.establish(nc, network); err == nil {
			return nil
		}
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// establish handshakes a candidate connection and, on success, swaps it in
// as the client's connection, restores the server-side sessions, and
// negotiates the transport tier. On failure the candidate is closed and the
// client is as it was, still disconnected.
func (c *Client) establish(nc net.Conn, network string) error {
	// The Hello exchange touches no client state, so it runs without the
	// lock: a slow candidate never blocks the host's fail-open calls.
	conn := wire.NewConn(nc)
	grant, err := conn.Handshake(wire.HelloFlagResume, c.cfg.DialTimeout)
	if err != nil {
		return errors.Join(fmt.Errorf("client: %w", err), nc.Close())
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.state.Load() == stateClosed {
		return errors.Join(errClosed, nc.Close())
	}
	oldToken := c.resumeToken
	c.conn, c.network, c.resumeToken = conn, network, grant.Token
	if err = c.restore(oldToken); err == nil && c.cfg.SharedMem && network == transport.NetUnix {
		err = c.negotiateShm()
	}
	if err != nil {
		return errors.Join(err, nc.Close())
	}
	c.cause = nil
	c.state.Store(stateConnected)
	return nil
}

// refusal reports an error that leaves the connection usable: the server
// answered with an Error frame, or a tenant's event table failed the check.
// Anything else is a transport failure.
func refusal(err error) bool {
	var re *RemoteError
	return errors.As(err, &re) || errors.Is(err, errEventTable)
}

// restore rebuilds the client's server-side state on the connection just
// swapped in, and is the one place a thread's recovery state is written.
// It presents the previous connection's token; applied then holds, for
// every session the server handed back, how many events it has applied. A
// refusal (expired window, draining, restarted daemon) — or having no token
// to present — leaves applied empty, which is the reopen-from-scratch case:
// every oracle reopens its meta session and every thread its own. It fails
// only on a transport error; a per-oracle refusal degrades that oracle but
// keeps the connection. Caller holds c.mu.
func (c *Client) restore(token uint64) error {
	applied := make(map[uint32]uint64)
	if token != 0 {
		var rs wire.Resumed
		if err := c.exchange(wire.TResume, &wire.Uint64{V: token}, &rs); err == nil {
			for _, r := range rs.Sessions {
				applied[r.Session] = r.Applied
			}
		} else if !refusal(err) {
			return err
		}
	}
	resumed := len(applied) > 0
	for _, o := range c.oracles {
		var err error
		if resumed {
			delete(applied, o.meta)
		} else if err = o.open(); err != nil {
			if !refusal(err) {
				return err
			}
			err = fmt.Errorf("client: reconnect: reopening tenant %q: %w", o.tenant, err)
		}
		// Service restored clears a refusal latched during the outage (a
		// recurring one re-latches on replay); a refused oracle's threads
		// fail open, their events still landing in the shadow buffer in
		// case a later reconnect restores service.
		o.noteOpenErr(err)
		for _, t := range o.threadList() {
			// A session that survived keeps its id and its server-side
			// model state, so only the unacknowledged tail needs replay;
			// any other is reopened on first producer activity.
			ap, survived := applied[t.sid]
			if t.opened = t.opened && survived && err == nil; t.opened {
				delete(applied, t.sid)
				t.resumeApplied = t.sessBase + ap
			}
			t.needReplay = err == nil
			t.inert.Store(err != nil)
		}
	}
	// Sessions nobody claims belong to oracles closed during the outage.
	for sid := range applied {
		if err := c.exchange(wire.TCloseSession, &wire.SessionRef{Session: sid}, &wire.SessionRef{}); err != nil && !refusal(err) {
			return err
		}
	}
	return nil
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
	if seq > shadowEvents {
		oldest = seq - shadowEvents + 1
	}

	if !t.opened {
		if seq == 0 {
			// Nothing ever submitted: nothing to reopen or replay.
			t.needReplay = false
			return
		}
		prevBase := t.sessBase
		if !t.ensureOpen(c) {
			// Refused or offline again; ensureOpen latched what matters.
			t.needReplay = false
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
		t.resumeApplied = t.sessBase
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
			t.replayBuf = append(t.replayBuf, t.shadow[(s-1)&shadowMask])
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
