package client

import (
	"errors"
	"slices"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
	"repro/pythia"
)

// Default ring geometry the client proposes during shm negotiation. One
// segment carries shmRings independently bindable per-thread rings; threads
// beyond the ring count keep the socket batching path.
const (
	shmRings   = 16
	shmSlots   = 4096
	shmPredCap = 64
)

// ErrNoSharedMem reports an operation that requires the shared-memory tier
// on a connection that negotiated only a socket transport.
var ErrNoSharedMem = errors.New("client: shared-memory transport not negotiated")

// clientShm is the client's half of a negotiated shared-memory segment.
// The segment file is already unlinked; the mapping lives until process
// exit (Close and disconnect sever only the socket — unmapping while a
// submitting goroutine may still be in TryPush would turn fail-open into
// a fault, so a reconnect orphans the old mapping and negotiates a fresh
// segment).
type clientShm struct {
	seg   *transport.Segment
	rings []transport.Ring
	used  []bool // ring slots handed to threads, guarded by c.mu
}

// negotiateShm attempts the shared-memory upgrade over a freshly
// handshaken unix connection: create the segment, offer it, and keep it
// only if the server maps it. Failing to get one — no segment, a server
// that refuses it — falls open to the socket transport the connection
// already has and is no error; a transport failure, or a segment that
// cannot be cleaned up, fails the connection being established. Caller
// holds c.mu, mid-establish — hence exchange, which skips the
// connection-state gate.
func (c *Client) negotiateShm() error {
	g := transport.Geometry{Rings: shmRings, Slots: shmSlots, PredCap: shmPredCap}
	seg, err := transport.CreateSegment(c.cfg.ShmDir, g.SegmentSize())
	if err != nil {
		return nil
	}
	transport.WriteHeader(seg.Bytes(), g)
	rings, err := transport.MapRings(seg.Bytes(), g)
	if err != nil {
		return seg.Close()
	}
	err = c.exchange(wire.TShmSetup, &wire.ShmSetup{
		Rings:   uint32(g.Rings),
		Slots:   uint32(g.Slots),
		PredCap: uint32(g.PredCap),
		SegSize: uint64(g.SegmentSize()),
		Path:    seg.Path(),
	}, &wire.ShmSetupOK{})
	if err != nil {
		// A CodeShmSetup refusal is the designed fallback (server on
		// another platform, unmappable path, …): keep the socket.
		if refusal(err) {
			err = nil
		}
		return errors.Join(err, seg.Close())
	}
	// The server holds its own mapping now; drop the directory entry so a
	// crash on either side leaves nothing in /dev/shm.
	if err := seg.Unlink(); err != nil {
		return errors.Join(err, seg.Close())
	}
	c.shm.Store(&clientShm{seg: seg, rings: rings, used: make([]bool, len(rings))})
	return nil
}

// bindRing tries once per connection epoch to put this thread on a free
// shm ring: it claims a slot and binds it to the thread's session on the
// server; on any failure the thread keeps the socket batching path. Runs on
// the submitting goroutine before the first event is buffered, so a bound
// thread never has socket-buffered events that could be reordered behind
// ring entries — and any pending post-reconnect replay happens here, before
// the ring engages: ring traffic must never overtake the replayed tail.
func (t *Thread) bindRing() {
	t.shmTried.Store(true)
	c := t.o.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.state.Load() != stateConnected {
		return
	}
	sh := c.shm.Load()
	if sh == nil {
		return
	}
	if t.needReplay {
		t.replayLocked(c)
		if t.needReplay || c.state.Load() != stateConnected {
			return
		}
	}
	if !t.ensureOpen(c) {
		return
	}
	idx := slices.Index(sh.used, false)
	if idx < 0 {
		return // rings exhausted: this thread stays on socket batching
	}
	bind := &wire.SessionArg{Session: t.sid, Arg: uint32(idx)}
	if c.call(wire.TShmBind, bind, &wire.SessionArg{}) != nil {
		return
	}
	sh.used[idx] = true
	t.ringIdx, t.shmOwner = idx, sh
	t.ring.Store(&sh.rings[idx])
}

// releaseRingLocked returns the thread's ring slot to the free list
// (session closed or restarted). Caller holds c.mu and the server has
// already unbound its side; the caller clears t.ring itself, after the
// locked section. A slot from a pre-reconnect segment is already orphaned
// wholesale, so only slots of the current segment are returned.
func (t *Thread) releaseRingLocked(c *Client) (hadRing bool) {
	if t.ring.Load() == nil {
		return false
	}
	if sh := c.shm.Load(); sh != nil && sh == t.shmOwner {
		sh.used[t.ringIdx] = false
	}
	t.shmOwner = nil
	return true
}

// pushSlow waits for ring space with bounded spin-then-park. A ring that
// stays full for RequestTimeout means the server stopped consuming — the
// thread drops its ring and the client starts reconnecting; the stalled
// events are already in the shadow buffer, so the post-reconnect replay
// re-delivers them.
func (t *Thread) pushSlow(id int32) {
	c := t.o.c
	deadline := time.Now().Add(c.cfg.RequestTimeout)
	for attempt := 1; ; attempt++ {
		transport.Park(attempt)
		if c.state.Load() != stateConnected {
			// Disconnected under us: the event lives in the shadow buffer.
			t.ring.Store(nil)
			return
		}
		r := t.ring.Load()
		if r == nil {
			return
		}
		if r.TryPush(id) {
			return
		}
		if attempt&63 == 0 && time.Now().After(deadline) {
			t.ring.Store(nil)
			c.disconnect(errors.New("client: shm ring stalled; reconnecting"))
			return
		}
	}
}

// Subscribe puts this thread in streaming-prediction mode: the daemon
// republishes PredictSequence(horizon) into the thread's shared slot every
// `every` observed events, and Latest reads the freshest result without a
// round trip. Requires the shared-memory transport.
func (t *Thread) Subscribe(horizon, every int) error {
	if t.inert.Load() {
		return ErrNoSharedMem
	}
	if t.ring.Load() == nil && !t.shmTried.Load() {
		t.bindRing()
	}
	if t.ring.Load() == nil {
		return ErrNoSharedMem
	}
	if horizon < 1 {
		horizon = 1
	}
	if every < 0 {
		every = 0
	}
	c := t.o.c
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.call(wire.TSubscribe, &wire.Subscribe{
		Session: t.sid,
		Horizon: uint32(horizon),
		Every:   uint32(every),
	}, &wire.SessionRef{})
}

// Latest reads the most recently published subscription predictions into
// buf[:0] (allocation-free once buf has grown to the horizon). ok is false
// when the thread has no subscription, nothing has been published yet, or
// the read raced a republish to exhaustion.
// pythia:hotpath — the co-located predict path: no syscall, no round trip.
func (t *Thread) Latest(buf []pythia.Prediction) ([]pythia.Prediction, bool) {
	if r := t.ring.Load(); r != nil {
		return r.ReadPredictions(buf)
	}
	return buf[:0], false
}
