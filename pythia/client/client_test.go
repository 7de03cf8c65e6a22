package client

import (
	"bufio"
	"errors"
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/wire"
	"repro/pythia"
)

// fakeDaemon accepts one connection, answers the handshake and the meta
// OpenSession, then abruptly closes — simulating a daemon dying mid-run.
func fakeDaemon(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() {
		if err := ln.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
			t.Logf("closing listener: %v", err)
		}
	})
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		br := bufio.NewReader(nc)
		bw := bufio.NewWriter(nc)
		var buf []byte
		fail := func(err error) {
			if cerr := nc.Close(); cerr != nil {
				t.Logf("fake daemon close: %v", cerr)
			}
		}
		if typ, _, err := wire.ReadFrame(br, &buf); err != nil || typ != wire.THello {
			fail(err)
			return
		}
		if err := wire.WriteFrame(bw, wire.THelloOK, wire.Append(nil, &wire.HelloOK{Version: wire.Version})); err != nil {
			fail(err)
			return
		}
		if err := bw.Flush(); err != nil {
			fail(err)
			return
		}
		if typ, _, err := wire.ReadFrame(br, &buf); err != nil || typ != wire.TOpenSession {
			fail(err)
			return
		}
		so := wire.SessionOpened{Session: 0, Events: []string{"a", "b"}}
		if err := wire.WriteFrame(bw, wire.TSessionOpened, wire.Append(nil, &so)); err != nil {
			fail(err)
			return
		}
		if err := bw.Flush(); err != nil {
			fail(err)
			return
		}
		// Die without warning.
		if err := nc.Close(); err != nil {
			t.Logf("fake daemon close: %v", err)
		}
	}()
	return ln.Addr().String()
}

// TestFailOpenOnDeadDaemon: once the transport dies, the remote oracle
// must mirror the library's fail-open contract — Submit is a no-op,
// predictions return ok=false, Health reports Degraded — and every call
// must return promptly instead of hanging the host runtime.
func TestFailOpenOnDeadDaemon(t *testing.T) {
	addr := fakeDaemon(t)
	o, err := Connect(addr, "synth", Config{RequestTimeout: time.Second})
	if err != nil {
		t.Fatalf("connect: %v", err)
	}
	if id := o.Intern("a"); id != 0 {
		t.Fatalf("Intern(a) = %d, want 0 (server table order)", id)
	}
	if id := o.Intern("zzz"); id != 2 {
		t.Fatalf("Intern(zzz) = %d, want 2 (fresh id past the table)", id)
	}
	if name := o.EventName(1); name != "b" {
		t.Fatalf("EventName(1) = %q, want b", name)
	}

	th := o.Thread(0)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			th.Submit(o.Intern("a")) // flushes hit the dead socket
		}
		if _, ok := th.PredictAt(1); ok {
			t.Error("PredictAt succeeded on a dead connection")
		}
		if preds := th.PredictSequence(4); preds != nil {
			t.Errorf("PredictSequence returned %v on a dead connection", preds)
		}
		if _, ok := th.PredictDurationUntil(0, 8); ok {
			t.Error("PredictDurationUntil succeeded on a dead connection")
		}
		if h := o.Health(); h.State != pythia.Degraded {
			t.Errorf("health on dead connection = %s, want degraded", h.State)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("fail-open path blocked the caller")
	}
}

// TestFlushShipsToSocket: the public Flush contract is "ships any buffered
// submissions now" — the SubmitBatch frame must reach the wire immediately,
// not sit in the client's write buffer until the next round trip.
func TestFlushShipsToSocket(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() {
		if err := ln.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
			t.Logf("closing listener: %v", err)
		}
	})
	gotBatch := make(chan int, 1)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		br := bufio.NewReader(nc)
		bw := bufio.NewWriter(nc)
		var buf []byte
		reply := func(typ wire.Type, payload []byte) bool {
			if err := wire.WriteFrame(bw, typ, payload); err != nil {
				return false
			}
			return bw.Flush() == nil
		}
		for {
			typ, payload, err := wire.ReadFrame(br, &buf)
			if err != nil {
				return
			}
			switch typ {
			case wire.THello:
				if !reply(wire.THelloOK, wire.Append(nil, &wire.HelloOK{Version: wire.Version})) {
					return
				}
			case wire.TOpenSession:
				var o wire.OpenSession
				if err := wire.Decode(typ, payload, &o); err != nil {
					return
				}
				sid := uint32(0)
				if o.TID >= 0 {
					sid = 1
				}
				so := wire.SessionOpened{Session: sid, Events: []string{"a", "b"}}
				if !reply(wire.TSessionOpened, wire.Append(nil, &so)) {
					return
				}
			case wire.TSubmitBatch:
				_, batch, err := wire.ParseSubmitBatch(payload)
				if err != nil {
					return
				}
				gotBatch <- batch.Len()
			}
		}
	}()

	// The flush threshold (submitFlush) is far above the submitted count:
	// nothing but Flush (or a prediction) may ship the batch.
	o, err := Connect(ln.Addr().String(), "synth", Config{RequestTimeout: 2 * time.Second})
	if err != nil {
		t.Fatalf("connect: %v", err)
	}
	th := o.Thread(0)
	th.Submit(o.Intern("a"))
	th.Submit(o.Intern("b"))
	th.Submit(o.Intern("a"))
	select {
	case n := <-gotBatch:
		t.Fatalf("batch of %d arrived before Flush", n)
	case <-time.After(50 * time.Millisecond):
	}
	th.Flush()
	select {
	case n := <-gotBatch:
		if n != 3 {
			t.Fatalf("flushed batch carried %d events, want 3", n)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Flush left the batch in the client write buffer")
	}
}

// TestClosePreservesStickyErr: a transport failure latched before Close
// must stay visible through Err — a run that broke and was then cleanly
// closed still broke.
func TestClosePreservesStickyErr(t *testing.T) {
	addr := fakeDaemon(t)
	c, err := Dial(addr, Config{RequestTimeout: time.Second})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	o, err := c.Oracle("synth")
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	th := o.Thread(0)
	// The daemon died after the meta session: this round trip latches the
	// transport failure.
	if _, ok := th.PredictAt(1); ok {
		t.Fatal("PredictAt succeeded against a dead daemon")
	}
	want := c.Err()
	if want == nil {
		t.Fatal("no sticky error after a failed round trip")
	}
	if err := c.Close(); err != nil {
		t.Logf("close: %v", err) // closing a broken connection may itself error
	}
	if got := c.Err(); !errors.Is(got, want) {
		t.Fatalf("Err after Close = %v, want the latched %v", got, want)
	}
	// A clean close, by contrast, reports nil.
	addr2 := fakeDaemon(t)
	c2, err := Dial(addr2, Config{RequestTimeout: time.Second})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if err := c2.Close(); err != nil {
		t.Fatalf("clean close: %v", err)
	}
	if got := c2.Err(); got != nil {
		t.Fatalf("Err after clean Close = %v, want nil", got)
	}
}

// loopDaemon serves any number of connections with a minimal protocol
// (handshake, OpenSession, PredictAt ok=true, ignore the rest) and counts
// accepts — enough to pin which address in a fallback list won the dial.
func loopDaemon(t *testing.T) (addr string, accepts *atomic.Int32, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	accepts = new(atomic.Int32)
	var wg sync.WaitGroup
	var conns sync.Map
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			accepts.Add(1)
			conns.Store(nc, struct{}{})
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer nc.Close()
				br := bufio.NewReader(nc)
				bw := bufio.NewWriter(nc)
				var buf []byte
				reply := func(typ wire.Type, payload []byte) bool {
					if err := wire.WriteFrame(bw, typ, payload); err != nil {
						return false
					}
					return bw.Flush() == nil
				}
				for {
					typ, payload, err := wire.ReadFrame(br, &buf)
					if err != nil {
						return
					}
					switch typ {
					case wire.THello:
						if !reply(wire.THelloOK, wire.Append(nil, &wire.HelloOK{Version: wire.Version})) {
							return
						}
					case wire.TOpenSession:
						var o wire.OpenSession
						if err := wire.Decode(typ, payload, &o); err != nil {
							return
						}
						sid := uint32(0)
						if o.TID >= 0 {
							sid = 1
						}
						so := wire.SessionOpened{Session: sid, Events: []string{"a", "b"}}
						if !reply(wire.TSessionOpened, wire.Append(nil, &so)) {
							return
						}
					case wire.TPredictAt:
						pr := wire.AppendPrediction(nil, pythia.Prediction{EventID: 0, Distance: 1, Probability: 1}, true)
						if !reply(wire.TPrediction, pr) {
							return
						}
					}
				}
			}()
		}
	}()
	return ln.Addr().String(), accepts, func() {
		_ = ln.Close()
		conns.Range(func(k, _ any) bool {
			_ = k.(net.Conn).Close()
			return true
		})
		wg.Wait()
	}
}

// TestDialFallbackOrder pins the fallback-list contract: addresses are
// tried in list order on every dial — a dead first address falls through,
// and with both alive the first always wins.
func TestDialFallbackOrder(t *testing.T) {
	// A dead first address must fall through to the live second.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	deadAddr := dead.Addr().String()
	if err := dead.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	liveAddr, liveAccepts, stopLive := loopDaemon(t)
	defer stopLive()

	c, err := Dial(deadAddr+","+liveAddr, Config{DialTimeout: time.Second})
	if err != nil {
		t.Fatalf("dial with dead first address: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if got := liveAccepts.Load(); got != 1 {
		t.Fatalf("live fallback accepted %d conns, want 1", got)
	}

	// With two live daemons the first in the list must get the connection.
	addrA, acceptsA, stopA := loopDaemon(t)
	defer stopA()
	addrB, acceptsB, stopB := loopDaemon(t)
	defer stopB()
	c2, err := Dial(addrA+","+addrB, Config{DialTimeout: time.Second})
	if err != nil {
		t.Fatalf("dial two live addresses: %v", err)
	}
	if err := c2.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if a, b := acceptsA.Load(), acceptsB.Load(); a != 1 || b != 0 {
		t.Fatalf("accepts = (%d, %d), want the first address to win (1, 0)", a, b)
	}
}

// TestReconnectUsesFallbackList: when the primary dies for good, the
// reconnect loop must walk the same fallback list Dial used and come back
// on the secondary.
func TestReconnectUsesFallbackList(t *testing.T) {
	addrA, _, stopA := loopDaemon(t)
	addrB, acceptsB, stopB := loopDaemon(t)
	defer stopB()

	c, err := Dial(addrA+","+addrB, Config{
		DialTimeout:       time.Second,
		RequestTimeout:    time.Second,
		ReconnectMinDelay: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	o, err := c.Oracle("synth")
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	th := o.Thread(0)
	if _, ok := th.PredictAt(1); !ok {
		t.Fatal("PredictAt failed on the primary")
	}
	if got := acceptsB.Load(); got != 0 {
		t.Fatalf("secondary saw %d conns while the primary was alive", got)
	}

	stopA() // primary gone: listener closed, live conns severed

	deadline := time.Now().Add(10 * time.Second)
	for c.Stats().Reconnects == 0 {
		th.PredictAt(1)
		if time.Now().After(deadline) {
			t.Fatalf("no reconnect to the fallback address (stats %+v)", c.Stats())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got := acceptsB.Load(); got == 0 {
		t.Fatal("reconnect did not land on the fallback address")
	}
	if _, ok := th.PredictAt(1); !ok {
		t.Fatal("PredictAt failed after failover to the fallback address")
	}
	if err := c.Err(); err != nil {
		t.Fatalf("Err after successful failover = %v, want nil", err)
	}
}

func TestDialRefused(t *testing.T) {
	// A port with no listener: Dial must fail fast with an error, not hang.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := ln.Addr().String()
	if err := ln.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := Dial(addr, Config{DialTimeout: time.Second}); err == nil {
		t.Fatal("Dial of a closed port succeeded")
	}
}

// TestOracleCloseReleasesSessions pins Oracle.Close on a shared client —
// what Fleet hands out, pooled for the life of the process: every session
// the oracle opened is closed server-side (so none stays charged to
// MaxSessions until the connection dies) and the oracle, its threads and
// their shadow rings are unlinked from the client.
func TestOracleCloseReleasesSessions(t *testing.T) {
	dir := t.TempDir()
	rec := pythia.NewRecordOracle(pythia.WithoutTimestamps())
	for i := 0; i < 16; i++ {
		rec.Thread(0).Submit(rec.Intern([]string{"a", "b"}[i%2]))
	}
	ts, err := rec.Finish()
	if err != nil {
		t.Fatalf("finishing trace: %v", err)
	}
	if err := pythia.SaveTraceSet(filepath.Join(dir, "synth.pythia"), ts); err != nil {
		t.Fatalf("saving trace: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := server.New(server.Config{TraceDir: dir})
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	defer func() {
		if err := srv.Shutdown(); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-serveErr; err != nil {
			t.Errorf("serve: %v", err)
		}
	}()

	c, err := Dial(ln.Addr().String(), Config{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	for i := 0; i < 1000; i++ {
		o, err := c.Oracle("synth")
		if err != nil {
			t.Fatalf("cycle %d: oracle: %v", i, err)
		}
		th := o.Thread(0)
		th.Submit(o.Intern("a"))
		th.PredictAt(1) // opens the thread's session and ships the event
		if err := o.Close(); err != nil {
			t.Fatalf("cycle %d: close: %v", i, err)
		}
	}
	if got := srv.Sessions(); got != 0 {
		t.Errorf("server still counts %d open sessions after every oracle was closed", got)
	}
	c.mu.Lock()
	linked := len(c.oracles)
	c.mu.Unlock()
	if linked != 0 {
		t.Errorf("client still links %d closed oracles", linked)
	}
	if err := c.Err(); err != nil {
		t.Errorf("client error: %v", err)
	}
}

// TestInternHitZeroAlloc gates the event-table hit path of both oracles:
// Intern and Lookup of a known event, with 0, 1 and 2 payload args,
// allocate nothing — in process and on the client, whose table is the
// daemon's.
func TestInternHitZeroAlloc(t *testing.T) {
	dir := t.TempDir()
	rec := pythia.NewRecordOracle(pythia.WithoutTimestamps())
	for i := 0; i < 8; i++ {
		th := rec.Thread(0)
		th.Submit(rec.Intern("MPI_Barrier"))
		th.Submit(rec.Intern("MPI_Send", 3))
		th.Submit(rec.Intern("MPI_Reduce", 2, 7))
	}
	ts, err := rec.Finish()
	if err != nil {
		t.Fatalf("finishing trace: %v", err)
	}
	if err := pythia.SaveTraceSet(filepath.Join(dir, "mpi.pythia"), ts); err != nil {
		t.Fatalf("saving trace: %v", err)
	}
	local, err := pythia.NewPredictOracle(ts, pythia.Config{})
	if err != nil {
		t.Fatalf("local oracle: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := server.New(server.Config{TraceDir: dir})
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	defer func() {
		if err := srv.Shutdown(); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-serveErr; err != nil {
			t.Errorf("serve: %v", err)
		}
	}()
	remote, err := Connect(ln.Addr().String(), "mpi", Config{})
	if err != nil {
		t.Fatalf("connect: %v", err)
	}
	defer remote.Close()

	// Concrete calls, not an interface: a variadic call through an
	// interface method cannot keep its args slice on the stack.
	for _, tc := range []struct {
		name string
		hit  func() pythia.ID
	}{
		{"pythia.Oracle Intern/0", func() pythia.ID { return local.Intern("MPI_Barrier") }},
		{"pythia.Oracle Intern/1", func() pythia.ID { return local.Intern("MPI_Send", 3) }},
		{"pythia.Oracle Intern/2", func() pythia.ID { return local.Intern("MPI_Reduce", 2, 7) }},
		{"pythia.Oracle Lookup/0", func() pythia.ID { return local.Lookup("MPI_Barrier") }},
		{"pythia.Oracle Lookup/1", func() pythia.ID { return local.Lookup("MPI_Send", 3) }},
		{"pythia.Oracle Lookup/2", func() pythia.ID { return local.Lookup("MPI_Reduce", 2, 7) }},
		{"client.Oracle Intern/0", func() pythia.ID { return remote.Intern("MPI_Barrier") }},
		{"client.Oracle Intern/1", func() pythia.ID { return remote.Intern("MPI_Send", 3) }},
		{"client.Oracle Intern/2", func() pythia.ID { return remote.Intern("MPI_Reduce", 2, 7) }},
		{"client.Oracle Lookup/0", func() pythia.ID { return remote.Lookup("MPI_Barrier") }},
		{"client.Oracle Lookup/1", func() pythia.ID { return remote.Lookup("MPI_Send", 3) }},
		{"client.Oracle Lookup/2", func() pythia.ID { return remote.Lookup("MPI_Reduce", 2, 7) }},
	} {
		if id := tc.hit(); id < 0 {
			t.Fatalf("%s: event unknown (%d)", tc.name, id)
		}
		if allocs := testing.AllocsPerRun(1000, func() { tc.hit() }); allocs != 0 {
			t.Errorf("%s hit allocates %v/op, want 0", tc.name, allocs)
		}
	}
}
