package server

import (
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
