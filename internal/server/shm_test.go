package server

import (
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
	"repro/pythia"
	"repro/pythia/client"
)

// shmClient dials the unix listener with shared memory and fails the test
// if the shm tier did not engage.
func shmClient(t *testing.T, unixAddr, tenant string) *client.Oracle {
	t.Helper()
	o, err := client.Connect(unixAddr, tenant, client.Config{SharedMem: true})
	if err != nil {
		t.Fatalf("shm connect: %v", err)
	}
	t.Cleanup(func() {
		if err := o.Close(); err != nil {
			t.Errorf("closing shm oracle: %v", err)
		}
	})
	if got := o.Transport(); got != "shm" {
		t.Fatalf("negotiated transport %q, want shm", got)
	}
	return o
}

// TestSubmitShmZeroAlloc is the gating test for the acceptance criterion:
// the steady-state shm Submit path allocates nothing.
func TestSubmitShmZeroAlloc(t *testing.T) {
	dir := t.TempDir()
	synthTrace(t, dir, "synth", 64)
	_, _, unixAddr := startServerTransports(t, Config{TraceDir: dir})
	o := shmClient(t, unixAddr, "synth")
	th := o.Thread(0)
	ids := make([]pythia.ID, 4)
	for i, n := range []string{"phase:a", "phase:b", "phase:c", "phase:d"} {
		ids[i] = o.Intern(n)
	}
	th.Submit(ids[0]) // first submit binds the ring
	if _, ok := th.PredictAt(1); !ok {
		t.Fatal("prediction unavailable after first submit")
	}

	i := 0
	allocs := testing.AllocsPerRun(5000, func() {
		th.Submit(ids[i&3])
		i++
	})
	if allocs != 0 {
		t.Fatalf("shm Submit allocates %v/op, want 0", allocs)
	}
	if h := o.Health(); h.State != pythia.Healthy {
		t.Fatalf("oracle degraded after zero-alloc run: %+v", h)
	}
}

// TestShmSubscriptionStreams checks the streaming-prediction mode end to
// end: Subscribe drains the ring and publishes synchronously, so the first
// Latest read is deterministic and must be bit-identical to an in-process
// oracle fed the same events.
func TestShmSubscriptionStreams(t *testing.T) {
	dir := t.TempDir()
	names := synthTrace(t, dir, "synth", 64)
	_, _, unixAddr := startServerTransports(t, Config{TraceDir: dir})
	o := shmClient(t, unixAddr, "synth")
	th := o.Thread(0)
	th.StartAtBeginning()

	// The same reference replayed in process.
	ts, err := pythia.LoadTraceSet(dir + "/synth.pythia")
	if err != nil {
		t.Fatal(err)
	}
	lo, err := pythia.NewPredictOracle(ts, pythia.Config{})
	if err != nil {
		t.Fatal(err)
	}
	lth := lo.Thread(0)
	lth.StartAtBeginning()

	samePreds := func(got, want []pythia.Prediction) bool {
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if !samePrediction(got[i], want[i]) {
				return false
			}
		}
		return true
	}

	const horizon = 4
	if _, ok := th.Latest(nil); ok {
		t.Fatal("Latest reported ok before Subscribe")
	}
	for i := 0; i < 6; i++ {
		th.Submit(o.Intern(names[i%len(names)]))
		lth.Submit(lo.Intern(names[i%len(names)]))
	}
	if err := th.Subscribe(horizon, 1); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	got, ok := th.Latest(nil)
	if !ok {
		t.Fatal("Latest not ok immediately after Subscribe")
	}
	want := lth.PredictSequence(horizon)
	if !samePreds(got, want) {
		t.Fatalf("initial predictions: shm %+v local %+v", got, want)
	}

	// After more submissions the pump must refresh the slot on its own —
	// no further round trips from this side.
	for i := 6; i < 10; i++ {
		th.Submit(o.Intern(names[i%len(names)]))
		lth.Submit(lo.Intern(names[i%len(names)]))
	}
	want = lth.PredictSequence(horizon)
	deadline := time.Now().Add(5 * time.Second)
	for {
		got, ok = th.Latest(got)
		if ok && samePreds(got, want) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("subscription never refreshed: latest %+v want %+v", got, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestShmLatestZeroAlloc pins the other half of the co-located hot loop:
// reading the freshest subscription predictions allocates nothing once the
// buffer has grown.
func TestShmLatestZeroAlloc(t *testing.T) {
	dir := t.TempDir()
	synthTrace(t, dir, "synth", 64)
	_, _, unixAddr := startServerTransports(t, Config{TraceDir: dir})
	o := shmClient(t, unixAddr, "synth")
	th := o.Thread(0)
	th.Submit(o.Intern("phase:a"))
	if err := th.Subscribe(4, 1); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	buf := make([]pythia.Prediction, 0, 8)
	allocs := testing.AllocsPerRun(2000, func() {
		var ok bool
		buf, ok = th.Latest(buf)
		if !ok {
			t.Fatal("Latest not ok")
		}
	})
	if allocs != 0 {
		t.Fatalf("Latest allocates %v/op, want 0", allocs)
	}
}

// TestShmSetupRefusedFallsBack drives hostile geometry through the wire
// op: the server must refuse with CodeShmSetup and keep the connection
// serving, and a SharedMem client on a refusing transport must fall back
// to the socket tier.
func TestShmSetupRefusedFallsBack(t *testing.T) {
	dir := t.TempDir()
	synthTrace(t, dir, "synth", 8)
	_, tcpAddr, _ := startServerTransports(t, Config{TraceDir: dir})

	// Wire-level: every invalid geometry and segment claim is refused
	// without killing the connection.
	rc := dialRaw(t, tcpAddr)
	okSize := uint64(transport.Geometry{Rings: 1, Slots: 64, PredCap: 1}.SegmentSize())
	bad := []wire.ShmSetup{
		{Rings: 0, Slots: 64, PredCap: 1, SegSize: 1, Path: "/dev/shm/x"},
		{Rings: 1 << 20, Slots: 64, PredCap: 1, SegSize: 1, Path: "/dev/shm/x"},
		{Rings: 1, Slots: 63, PredCap: 1, SegSize: 1, Path: "/dev/shm/x"},  // below min
		{Rings: 1, Slots: 100, PredCap: 1, SegSize: 1, Path: "/dev/shm/x"}, // not pow2
		{Rings: 1, Slots: 1 << 30, PredCap: 1, SegSize: 1, Path: "/dev/shm/x"},
		{Rings: 1, Slots: 64, PredCap: 0, SegSize: 1, Path: "/dev/shm/x"},
		{Rings: 1, Slots: 64, PredCap: 1 << 20, SegSize: 1, Path: "/dev/shm/x"},
		{Rings: 1, Slots: 64, PredCap: 1, SegSize: 7, Path: "/dev/shm/x"},          // size disagrees
		{Rings: 1, Slots: 64, PredCap: 1, SegSize: okSize, Path: "relative/path"},  // bad path
		{Rings: 1, Slots: 64, PredCap: 1, SegSize: okSize, Path: "/nonexistent/x"}, // no file
	}
	for i := range bad {
		rc.sendMsg(wire.TShmSetup, &bad[i])
		var re wire.RemoteError
		if rc.recvMsg(wire.TError, &re); re.Code != wire.CodeShmSetup {
			t.Fatalf("case %d: code %v, want CodeShmSetup", i, re.Code)
		}
	}
	// The connection survived every refusal.
	sid := rc.openSession("synth", 0, 0)
	rc.ask(wire.TCloseSession, &wire.SessionRef{Session: sid}, &wire.SessionRef{})

	// Client-level: SharedMem over TCP never attempts shm and lands on tcp.
	o, err := client.Connect(tcpAddr, "synth", client.Config{SharedMem: true})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	if got := o.Transport(); got != "tcp" {
		t.Fatalf("SharedMem over tcp negotiated %q, want tcp", got)
	}
}

// TestShmCorruptRingKillsConnection plants a hostile producer cursor in a
// bound ring; the pump must detect the invariant violation and close the
// connection rather than decode garbage.
func TestShmCorruptRingKillsConnection(t *testing.T) {
	dir := t.TempDir()
	synthTrace(t, dir, "synth", 8)
	var logged atomic.Bool
	_, tcpAddr, _ := startServerTransports(t, Config{
		TraceDir: dir,
		Logf:     func(format string, args ...any) { logged.Store(true) },
	})
	rc := dialRaw(t, tcpAddr)

	g := transport.Geometry{Rings: 1, Slots: 64, PredCap: 1}
	seg, err := transport.CreateSegment(t.TempDir(), g.SegmentSize())
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	transport.WriteHeader(seg.Bytes(), g)
	rings, err := transport.MapRings(seg.Bytes(), g)
	if err != nil {
		t.Fatal(err)
	}
	rc.ask(wire.TShmSetup, &wire.ShmSetup{
		Rings: 1, Slots: 64, PredCap: 1,
		SegSize: uint64(g.SegmentSize()), Path: seg.Path(),
	}, &wire.ShmSetupOK{})
	sid := rc.openSession("synth", 0, 0)
	rc.ask(wire.TShmBind, &wire.SessionArg{Session: sid, Arg: 0}, &wire.SessionArg{})

	// Violate the SPSC invariant: tail claims more than the slot count.
	rings[0].CorruptTailForTest(1000)

	// The pump notices and closes the socket; the next read must fail.
	if err := rc.NC.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := wire.ReadFrame(rc.BR, &rc.In); err == nil {
		t.Fatal("connection stayed alive after ring corruption")
	}
	if !logged.Load() {
		t.Error("ring corruption was not logged")
	}
}

// rawShm maps a segment with one ring per session onto the raw connection
// and binds sids[i] to ring i. It returns the client ends of the rings and
// the segment's bell.
func rawShm(t testing.TB, c *rawConn, slots int, sids ...uint32) ([]transport.Ring, transport.Bell) {
	t.Helper()
	g := transport.Geometry{Rings: len(sids), Slots: slots, PredCap: 1}
	seg, err := transport.CreateSegment(t.TempDir(), g.SegmentSize())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := seg.Close(); err != nil {
			t.Errorf("closing segment: %v", err)
		}
	})
	transport.WriteHeader(seg.Bytes(), g)
	rings, err := transport.MapRings(seg.Bytes(), g)
	if err != nil {
		t.Fatal(err)
	}
	c.ask(wire.TShmSetup, &wire.ShmSetup{
		Rings: uint32(g.Rings), Slots: uint32(g.Slots), PredCap: 1,
		SegSize: uint64(g.SegmentSize()), Path: seg.Path(),
	}, &wire.ShmSetupOK{})
	for i, sid := range sids {
		c.ask(wire.TShmBind, &wire.SessionArg{Session: sid, Arg: uint32(i)}, &wire.SessionArg{})
	}
	return rings, transport.SegmentBell(seg.Bytes())
}

// waitAsleep returns once the pump has armed the bell and had time to block
// on it.
func waitAsleep(t *testing.T, bell transport.Bell) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !bell.Armed() {
		if time.Now().After(deadline) {
			t.Fatal("the idle pump never armed the bell")
		}
		runtime.Gosched()
	}
	time.Sleep(5 * time.Millisecond)
	if !bell.Armed() {
		t.Fatal("bell disarmed with nothing pushed")
	}
}

// waitFor polls cond until it holds and fails the test if that takes
// longer than limit; it returns how long it took.
func waitFor(t *testing.T, limit time.Duration, what string, cond func() bool) time.Duration {
	t.Helper()
	start := time.Now()
	for !cond() {
		if d := time.Since(start); d > limit {
			t.Fatalf("%s took over %v", what, limit)
		}
		runtime.Gosched()
	}
	return time.Since(start)
}

// TestShmBellWakesSleepingPump checks that a push, not the pump's timeout,
// wakes an idle pump: once the pump sleeps on the bell, a burst with no
// socket op behind it is consumed within a tenth of bellSleep, and closing
// the connection ends the sleeping pump as quickly.
func TestShmBellWakesSleepingPump(t *testing.T) {
	dir := t.TempDir()
	names := synthTrace(t, dir, "synth", 8)
	srv, tcpAddr, _ := startServerTransports(t, Config{TraceDir: dir})
	rc := dialRaw(t, tcpAddr)
	reg := regFor(t, rc, "synth")
	sid := rc.openSession("synth", 0, wire.FlagStartAtBeginning)
	rings, bell := rawShm(t, rc, 64, sid)
	ring := &rings[0]
	limit := bellSleep / 10

	waitAsleep(t, bell)
	for _, n := range names {
		if !ring.TryPush(int32(reg[n])) {
			t.Fatal("ring full")
		}
	}
	d := waitFor(t, limit, "consuming a burst pushed at a sleeping pump", func() bool { return ring.Pending() == 0 })
	t.Logf("burst consumed %v after the push", d)

	waitAsleep(t, bell)
	if err := rc.NC.Close(); err != nil {
		t.Fatal(err)
	}
	d = waitFor(t, limit, "tearing down a sleeping pump", func() bool { return srv.Sessions() == 0 })
	t.Logf("sessions released %v after the close", d)
}

// TestShmBellNoLostWakeups pushes single events at the pump's sleep edge,
// the moment it stops napping and arms the bell: it first measures how
// long after a consume the idle pump arms, then pushes at random gaps up
// to twice that, from one producer and then from two sharing the
// segment's one bell. Every event must be consumed long before the pump's
// timeout: a lost wake-up leaves its push waiting for it. Run it under
// -race.
func TestShmBellNoLostWakeups(t *testing.T) {
	dir := t.TempDir()
	names := synthTrace(t, dir, "synth", 8)
	_, tcpAddr, _ := startServerTransports(t, Config{TraceDir: dir})
	rc := dialRaw(t, tcpAddr)
	reg := regFor(t, rc, "synth")
	id := int32(reg[names[0]])
	sids := []uint32{
		rc.openSession("synth", 0, wire.FlagStartAtBeginning),
		rc.openSession("synth", 1, wire.FlagStartAtBeginning),
	}
	rings, bell := rawShm(t, rc, 64, sids...)
	consumed := func(ring *transport.Ring) bool {
		for t0 := time.Now(); ring.Pending() > 0; runtime.Gosched() {
			if time.Since(t0) > bellSleep/2 {
				return false
			}
		}
		return true
	}

	// The edge: from a consume to the armed bell, median of a few laps.
	laps := make([]time.Duration, 31)
	for i := range laps {
		waitAsleep(t, bell)
		rings[0].TryPush(id)
		if !consumed(&rings[0]) {
			t.Fatal("a push at a sleeping pump waited half a timeout")
		}
		t0 := time.Now()
		for !bell.Armed() {
		}
		laps[i] = time.Since(t0)
	}
	slices.Sort(laps)
	edge := laps[len(laps)/2]
	t.Logf("the idle pump arms the bell %v after a consume", edge)

	pushes := 1000
	if testing.Short() {
		pushes = 100
	}
	push := func(ring *transport.Ring, seed uint64, n int) {
		rng := rand.New(rand.NewPCG(seed, 45))
		for i := 0; i < n; i++ {
			// Spin, not sleep: a sleep lasts at least a millisecond.
			gap := time.Duration(rng.Int64N(2*int64(edge) + 1))
			for t0 := time.Now(); time.Since(t0) < gap; {
			}
			ring.TryPush(id)
			if !consumed(ring) {
				t.Errorf("push %d waited over %v: a lost wake-up", i, bellSleep/2)
				return
			}
		}
	}
	// One producer, so the pump keeps a processor of its own and the gaps
	// land where they are aimed.
	push(&rings[0], 1, pushes)
	// Two producers on the one bell: a push that loses the 1 → 0 swap
	// relies on the winner's wake.
	var wg sync.WaitGroup
	for p := range rings {
		wg.Add(1)
		go func() {
			defer wg.Done()
			push(&rings[p], uint64(2+p), pushes/4)
		}()
	}
	wg.Wait()
}

// TestShmSleepFindsPushBeforeArm drives the pump's last idle stage by hand
// on the one interleaving a wake cannot cover: an event pushed before the
// bell was armed, whose push therefore rang nothing. The look at the rings
// between arming and waiting must find it, long before the timeout would.
func TestShmSleepFindsPushBeforeArm(t *testing.T) {
	dir := t.TempDir()
	synthTrace(t, dir, "synth", 8)
	c := newConn(New(Config{TraceDir: dir}), nopConn{})
	open := wire.AppendOpenSession(nil, wire.OpenSession{TID: 0, Flags: wire.FlagStartAtBeginning, Tenant: "synth"})
	if err := c.handleFrame(wire.TOpenSession, open); err != nil {
		t.Fatalf("open: %v", err)
	}
	k, perr := c.sinkOf(0)
	if perr != nil {
		t.Fatalf("session: %v", perr)
	}
	g := transport.Geometry{Rings: 1, Slots: 64, PredCap: 1}
	seg, err := transport.CreateSegment(t.TempDir(), g.SegmentSize())
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	transport.WriteHeader(seg.Bytes(), g)
	rings, err := transport.MapRings(seg.Bytes(), g)
	if err != nil {
		t.Fatal(err)
	}
	sh := &connShm{seg: seg, rings: make([]shmRing, 1), bell: transport.SegmentBell(seg.Bytes())}
	sh.rings[0] = shmRing{r: &rings[0], sink: k, scratch: make([]int32, scratchChunk)}

	if !rings[0].TryPush(0) {
		t.Fatal("ring full")
	}
	start := time.Now()
	worked, ok := c.sleepShm(sh)
	if d := time.Since(start); worked != 1 || !ok || d > bellSleep/10 {
		t.Fatalf("sleepShm consumed %d (ok %v) after %v, want the one event at once", worked, ok, d)
	}
	if sh.bell.Armed() {
		t.Error("the bell stayed armed although the pump found work")
	}
}

// TestShmHostileBell lets a client scribble the bell word while it pushes:
// whatever the word reads, the pump must not fault, must consume a burst
// within one timeout, and must exit on teardown. Nor may the scribbling
// make it spin: a wait the scribbled word cuts short is followed by naps,
// so the pump arms the bell — the scribbler sees a 1 it did not write — at
// most about once per bellIdle.
func TestShmHostileBell(t *testing.T) {
	dir := t.TempDir()
	names := synthTrace(t, dir, "synth", 8)
	srv, tcpAddr, _ := startServerTransports(t, Config{TraceDir: dir})
	limit := bellSleep + 500*time.Millisecond
	for _, tc := range []struct {
		name string
		vals []uint32
	}{
		{"zero", []uint32{0}},
		{"one", []uint32{1}},
		{"two", []uint32{2}},
		{"all-ones", []uint32{0xFFFFFFFF}},
		{"flipping", []uint32{0, 1, 2, 0xFFFFFFFF, 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rc := dialRaw(t, tcpAddr)
			reg := regFor(t, rc, "synth")
			sid := rc.openSession("synth", 0, wire.FlagStartAtBeginning)
			rings, bell := rawShm(t, rc, 64, sid)
			ring := &rings[0]

			var stop atomic.Bool
			var wg sync.WaitGroup
			arms := 0
			start := time.Now()
			wg.Add(1)
			go func() {
				defer wg.Done()
				wrote := uint32(1)
				for !stop.Load() {
					for _, v := range tc.vals {
						if wrote != 1 && bell.Armed() {
							arms++
						}
						bell.CorruptForTest(v)
						wrote = v
						runtime.Gosched()
					}
				}
			}()
			defer func() {
				stop.Store(true)
				wg.Wait()
				elapsed := time.Since(start)
				if limit := 2*int(elapsed/bellIdle) + 10; arms > limit {
					t.Errorf("the pump armed the bell %d times in %v, more than %d: it spins", arms, elapsed, limit)
				}
				t.Logf("the pump armed the bell %d times in %v", arms, elapsed)
			}()

			for round := 0; round < 3; round++ {
				for _, n := range names {
					if !ring.TryPush(int32(reg[n])) {
						t.Fatal("ring full")
					}
				}
				waitFor(t, limit, "consuming under a scribbled bell", func() bool { return ring.Pending() == 0 })
			}
			time.Sleep(50 * bellIdle) // the scribbler against an idle pump
			if err := rc.NC.Close(); err != nil {
				t.Fatal(err)
			}
			waitFor(t, limit, "tearing down under a scribbled bell", func() bool { return srv.Sessions() == 0 })
		})
	}
}
