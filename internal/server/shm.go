package server

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/transport"
	"repro/internal/wire"
	"repro/pythia"
)

// connShm is one connection's shared-memory state: the mapped segment, its
// rings, and the pump goroutine that batch-decodes them. The conn goroutine
// owns negotiation and binding; the pump owns steady-state decode. A ring's
// mutex serializes the two wherever they meet, and the per-session ordering
// guarantee — no socket op on a bound session runs before its ring is
// drained — is what keeps shm predictions bit-identical to socket ones.
type connShm struct {
	seg   *transport.Segment
	rings []shmRing
	bell  transport.Bell // the segment's doorbell: the idle pump sleeps on it
	stop  atomic.Bool    // set by shmTeardown before it wakes the pump
	wg    sync.WaitGroup
}

// Pump idling, in three stages. For transport.ParkSpin empty sweeps the
// pump only yields the processor. Then it naps napSleep between sweeps
// until bellIdle has passed since the last event: an event that arrives
// meanwhile waits out at most one nap, and its producer pays nothing.
// Past bellIdle it arms the segment's bell and sleeps on it, and the next
// push pays one FUTEX_WAKE to wake it — a cost that a gap of bellIdle or
// more dwarfs, and that almost no recorded application event meets (see
// DESIGN §12). The timeout only bounds what a producer that scribbles the
// bell can make the pump sleep through.
const (
	napSleep  = 10 * time.Microsecond
	bellIdle  = time.Millisecond
	bellSleep = time.Second
)

// shmRing pairs one mapped ring with its binding. All fields behind mu.
type shmRing struct {
	mu         sync.Mutex
	r          *transport.Ring
	sink       *sink   // the bound session's sink; nil while unbound
	scratch    []int32 // decode buffer, sized at first bind
	subHorizon int     // predictions per subscription refresh, 0 = off
	subEvery   uint64  // refresh cadence in consumed events
	lastPush   uint64  // Consumed() at the last publish
}

// scratchChunk bounds the per-ring decode buffer: a drain loops in chunks,
// so server memory stays small no matter how large a ring the client asked
// for.
const scratchChunk = 4096

// shmRefused answers a refused negotiation: non-fatal, the client keeps the
// socket it is already on (the shm→uds→tcp fail-open chain).
func shmRefused(format string, args ...any) *protoErr {
	return &protoErr{code: wire.CodeShmSetup, msg: fmt.Sprintf(format, args...)}
}

// shmSetup handles TShmSetup: validate the claimed geometry as untrusted
// input, map the client's segment, and start the pump.
func (c *conn) shmSetup(ss *wire.ShmSetup) (wire.Message, error) {
	if c.shm != nil {
		return nil, badFrame("duplicate ShmSetup")
	}
	// Every field arrived off the wire; bound each one explicitly before it
	// feeds any size arithmetic.
	if ss.Rings < 1 || ss.Rings > transport.MaxRings {
		return nil, shmRefused("rings %d out of range 1..%d", ss.Rings, transport.MaxRings)
	}
	if ss.Slots < transport.MinSlots || ss.Slots > transport.MaxSlots {
		return nil, shmRefused("slots %d out of range %d..%d", ss.Slots, transport.MinSlots, transport.MaxSlots)
	}
	if ss.PredCap < 1 || ss.PredCap > transport.MaxPredCap {
		return nil, shmRefused("prediction capacity %d out of range 1..%d", ss.PredCap, transport.MaxPredCap)
	}
	g := transport.Geometry{Rings: int(ss.Rings), Slots: int(ss.Slots), PredCap: int(ss.PredCap)}
	if err := g.Validate(); err != nil {
		return nil, shmRefused("%v", err)
	}
	if ss.SegSize != uint64(g.SegmentSize()) {
		return nil, shmRefused("segment size %d disagrees with geometry (%d)", ss.SegSize, g.SegmentSize())
	}
	seg, err := transport.OpenSegment(ss.Path, g.SegmentSize())
	if err != nil {
		return nil, shmRefused("%v", err)
	}
	if err := transport.ReadHeader(seg.Bytes(), g); err != nil {
		c.closeRefusedSeg(seg)
		return nil, shmRefused("%v", err)
	}
	rings, err := transport.MapRings(seg.Bytes(), g)
	if err != nil {
		c.closeRefusedSeg(seg)
		return nil, shmRefused("%v", err)
	}

	sh := &connShm{seg: seg, rings: make([]shmRing, g.Rings), bell: transport.SegmentBell(seg.Bytes())}
	for i := range rings {
		sh.rings[i].r = &rings[i]
	}
	c.shm = sh
	c.ringOf = make(map[uint32]int, g.Rings)
	sh.wg.Add(1)
	go c.pumpShm(sh)

	return &wire.ShmSetupOK{Rings: uint32(len(rings))}, nil
}

// closeRefusedSeg unmaps a segment whose setup was refused after opening.
// The refusal itself is reported to the client; an unmap failure is a local
// condition worth a log line but never a reason to kill the connection.
func (c *conn) closeRefusedSeg(seg *transport.Segment) {
	if err := seg.Close(); err != nil {
		c.srv.logf("pythiad: closing refused shm segment for %s: %v", c.NC.RemoteAddr(), err)
	}
}

// shmBind handles TShmBind: route a session's submissions through a ring.
func (c *conn) shmBind(m *wire.SessionArg) (wire.Message, error) {
	if c.shm == nil {
		return nil, badFrame("ShmBind before ShmSetup")
	}
	k, perr := c.sinkOf(m.Session)
	if perr != nil {
		return nil, perr
	}
	ring := m.Arg
	if ring >= uint32(len(c.shm.rings)) {
		return nil, badFrame(fmt.Sprintf("ring %d out of range (%d rings)", ring, len(c.shm.rings)))
	}
	if _, dup := c.ringOf[m.Session]; dup {
		return nil, badFrame(fmt.Sprintf("session %d already ring-bound", m.Session))
	}
	r := &c.shm.rings[ring]
	r.mu.Lock()
	if r.sink != nil {
		r.mu.Unlock()
		return nil, badFrame(fmt.Sprintf("ring %d already bound", ring))
	}
	r.sink = k
	if r.scratch == nil {
		r.scratch = make([]int32, scratchChunk)
	}
	r.subHorizon = 0
	r.subEvery = 0
	r.mu.Unlock()
	c.ringOf[m.Session] = int(ring)
	return m, nil
}

// shmSubscribe handles TSubscribe: keep the ring's prediction slot fresh.
// The initial publish happens here, inside the same locked section, so the
// client has predictions to read the moment Subscribed arrives.
func (c *conn) shmSubscribe(sub *wire.Subscribe) (wire.Message, error) {
	if c.shm == nil {
		return nil, badFrame("Subscribe before ShmSetup")
	}
	if _, perr := c.sinkOf(sub.Session); perr != nil {
		return nil, perr
	}
	idx, bound := c.ringOf[sub.Session]
	if !bound {
		return nil, badFrame(fmt.Sprintf("session %d not ring-bound", sub.Session))
	}
	horizon := int(sub.Horizon)
	if horizon < 1 {
		horizon = 1
	}
	if horizon > wire.MaxPredictions {
		horizon = wire.MaxPredictions
	}
	r := &c.shm.rings[idx]
	r.mu.Lock()
	if pc := r.r.PredCap(); horizon > pc {
		horizon = pc
	}
	if _, err := drainRingLocked(r); err != nil {
		r.mu.Unlock()
		return nil, &protoErr{code: wire.CodeBadFrame, msg: err.Error(), fatal: true}
	}
	r.subHorizon = horizon
	r.subEvery = uint64(sub.Every)
	if r.subEvery == 0 {
		r.subEvery = 1
	}
	publishLocked(r)
	r.mu.Unlock()

	return &wire.SessionRef{Session: sub.Session}, nil
}

// shmUnbind detaches a closing session from its ring after a final drain.
func (c *conn) shmUnbind(sid uint32) *protoErr {
	if c.shm == nil {
		return nil
	}
	idx, bound := c.ringOf[sid]
	if !bound {
		return nil
	}
	r := &c.shm.rings[idx]
	r.mu.Lock()
	_, err := drainRingLocked(r)
	r.sink = nil
	r.subHorizon = 0
	r.mu.Unlock()
	delete(c.ringOf, sid)
	if err != nil {
		return &protoErr{code: wire.CodeBadFrame, msg: err.Error(), fatal: true}
	}
	return nil
}

// shmTeardown stops the pump and unmaps the segment. Runs in conn.teardown,
// before any parking decision: the final drain below makes each bound
// session's applied counter exact, which is what resume dedup relies on.
func (c *conn) shmTeardown() {
	if c.shm == nil {
		return
	}
	c.shm.stop.Store(true)
	c.shm.bell.Wake()
	c.shm.wg.Wait()
	for i := range c.shm.rings {
		r := &c.shm.rings[i]
		r.mu.Lock()
		_, err := drainRingLocked(r)
		r.mu.Unlock()
		if err != nil {
			c.srv.logf("pythiad: final drain of shm ring %d of %s: %v", i, c.NC.RemoteAddr(), err)
		}
	}
	if err := c.shm.seg.Close(); err != nil {
		c.srv.logf("pythiad: closing shm segment for %s: %v", c.NC.RemoteAddr(), err)
	}
	c.shm = nil
}

// asIDs views decoded ring ids as event ids. pythia.ID is an int32, so the
// view shares the memory: a drained chunk reaches the oracle with no
// per-event conversion.
func asIDs(ids []int32) []pythia.ID {
	return unsafe.Slice((*pythia.ID)(unsafe.SliceData(ids)), len(ids))
}

// drainRingLocked is the server-side batch decode: it consumes everything
// the ring currently holds into the bound session's sink, in scratch-sized
// chunks — each one apply, so one containment frame and one budget charge
// per chunk — and refreshes the subscription slot on cadence. Caller holds
// r.mu; an unbound ring is a no-op.
func drainRingLocked(r *shmRing) (int, error) {
	if r.sink == nil {
		return 0, nil
	}
	total := 0
	for {
		n, err := r.r.ConsumeInto(r.scratch)
		if err != nil {
			return total, err
		}
		if n == 0 {
			break
		}
		r.sink.apply(asIDs(r.scratch[:n]))
		total += n
	}
	if r.subHorizon > 0 && r.r.Consumed()-r.lastPush >= r.subEvery {
		publishLocked(r)
	}
	return total, nil
}

// publishLocked refreshes the ring's seqlock'd prediction slot. Caller
// holds r.mu with r.sink non-nil.
func publishLocked(r *shmRing) {
	r.r.PublishPredictions(r.sink.th.PredictSequence(r.subHorizon))
	r.lastPush = r.r.Consumed()
}

// pumpShm is the per-connection decode pump: it sweeps every bound ring,
// batch-decoding into the session, and re-arms the connection's keepalive
// window on what it consumed. When nothing arrives it yields, naps, and at
// last sleeps on the segment's bell until a push rings it (see bellIdle).
// A corrupt ring (hostile or torn producer cursor) kills the connection —
// the pump closes the socket, which unblocks the conn goroutine's read and
// tears everything down.
func (c *conn) pumpShm(sh *connShm) {
	defer sh.wg.Done()
	idle := 0           // empty sweeps since the last event
	var quiet time.Time // when the first of them found the rings empty
	keepalive := c.srv.cfg.Keepalive
	var armed time.Time // the last keepalive re-arm on ring traffic
	for !sh.stop.Load() {
		worked, ok := c.sweepShm(sh)
		switch {
		case !ok:
			return
		case worked > 0:
		case idle < transport.ParkSpin:
			if idle == 0 {
				quiet = time.Now()
			}
			idle++
			runtime.Gosched()
			continue
		case time.Since(quiet) < bellIdle:
			transport.Nap(napSleep)
			continue
		default:
			asleep := time.Now()
			if worked, ok = c.sleepShm(sh); !ok {
				return
			}
			if worked == 0 {
				// Nap out whatever part of bellIdle the sleep did not
				// last: none after a timeout, all of it after a wait that
				// a scribbled bell cut short, so no client can make the
				// pump spin.
				quiet = asleep
				continue
			}
		}
		idle = 0
		// Ring traffic is liveness as much as a frame is: a client that
		// only submits sends none. Re-arm at most once per half window.
		if keepalive > 0 {
			if now := time.Now(); now.Sub(armed) >= keepalive/2 {
				c.armKeepalive()
				armed = now
			}
		}
	}
}

// sleepShm is the pump's last idle stage: arm the bell, look at the rings
// once more — a push that look misses sees the armed bell and rings it —
// and sleep on the bell if they are still empty. It returns what its last
// sweep consumed. stop is read after the arm for the same reason the rings
// are: shmTeardown sets it before it wakes the bell. The bell is stood
// down after the sleep, so pushes while the pump naps again make no
// syscall.
func (c *conn) sleepShm(sh *connShm) (worked int, ok bool) {
	sh.bell.Arm()
	if sh.stop.Load() {
		return 0, true
	}
	if worked, ok = c.sweepShm(sh); worked > 0 || !ok {
		sh.bell.Disarm()
		return worked, ok
	}
	sh.bell.Wait(bellSleep)
	sh.bell.Disarm()
	return c.sweepShm(sh)
}

// sweepShm drains every bound ring once and reports the events consumed.
// It reports ok false after a corrupt ring has closed the connection.
func (c *conn) sweepShm(sh *connShm) (worked int, ok bool) {
	for i := range sh.rings {
		r := &sh.rings[i]
		r.mu.Lock()
		n, err := drainRingLocked(r)
		r.mu.Unlock()
		if err != nil {
			c.srv.logf("pythiad: shm ring %d of %s: %v", i, c.NC.RemoteAddr(), err)
			if cerr := c.NC.Close(); cerr != nil {
				c.srv.logf("pythiad: closing %s after ring corruption: %v", c.NC.RemoteAddr(), cerr)
			}
			return worked, false
		}
		worked += n
	}
	return worked, true
}
