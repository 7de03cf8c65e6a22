package server

import (
	"bufio"
	"bytes"
	"errors"
	"net"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chaosnet"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/pythia"
	"repro/pythia/client"
)

// dialRawResume is dialRaw with the resume flag set; it returns the
// server-granted resume token alongside the connection.
func dialRawResume(t *testing.T, addr string) (*rawConn, uint64) {
	t.Helper()
	c, ok := dialRawHello(t, addr, wire.HelloFlagResume)
	return c, ok.Token
}

// resumeWithRetry polls TResume until the dead predecessor's sessions have
// been parked (teardown races the new connection) and returns the adopted
// sessions' applied counters.
func resumeWithRetry(t *testing.T, c *rawConn, token uint64) []wire.SessionApplied {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var rs wire.Resumed
		err := c.Exchange(wire.TResume, &wire.Uint64{V: token}, &rs, 5*time.Second)
		if err == nil {
			return rs.Sessions
		}
		var re *wire.RemoteError
		if !errors.As(err, &re) || re.Code != wire.CodeNoResume {
			t.Fatalf("resume: %v, want Resumed or NoResume while parking races", err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("sessions never parked for token %#x", token)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestResumeReplayDedup pins the resume protocol at the wire level: a dead
// connection's sessions are parked and adopted with their applied counters,
// and a replay overlapping what the server already applied is deduplicated
// exactly — no event is applied twice, late events are applied once.
func TestResumeReplayDedup(t *testing.T) {
	dir := t.TempDir()
	synthTrace(t, dir, "bt", 8)
	_, addr := startServer(t, Config{TraceDir: dir})

	c1, tok := dialRawResume(t, addr)
	if tok == 0 {
		t.Fatalf("no resume token granted")
	}
	reg := regFor(t, c1, "bt") // opens the meta session (sid 0)
	sid := c1.openSession("bt", 0, 0)
	a, b, cc, d := int32(reg["phase:a"]), int32(reg["phase:b"]), int32(reg["phase:c"]), int32(reg["phase:d"])
	for _, id := range []int32{a, b, cc} {
		c1.send(wire.TSubmit, wire.AppendSubmit(nil, sid, id))
	}
	// A round trip syncs the one-way submits before the connection dies.
	c1.send(wire.TPredictAt, wire.AppendPredictAt(nil, sid, 1))
	if typ, _ := c1.recv(); typ != wire.TPrediction {
		t.Fatalf("sync predict: got %s", typ)
	}
	if err := c1.NC.Close(); err != nil {
		t.Fatalf("killing c1: %v", err)
	}

	c2, tok2 := dialRawResume(t, addr)
	if tok2 == 0 || tok2 == tok {
		t.Fatalf("second connection token %#x (first %#x)", tok2, tok)
	}
	rs := resumeWithRetry(t, c2, tok)
	applied := make(map[uint32]uint64, len(rs))
	for _, r := range rs {
		applied[r.Session] = r.Applied
	}
	if got, found := applied[sid]; !found || got != 3 {
		t.Fatalf("resumed applied[%d] = %d (found %v), want 3", sid, got, found)
	}
	if got, found := applied[0]; !found || got != 0 {
		t.Fatalf("resumed meta applied = %d (found %v), want 0", got, found)
	}

	// Replay overlapping the applied prefix: sequences 2 and 3 must be
	// skipped, 4 applied.
	var done wire.SessionApplied
	c2.ask(wire.TReplay, &wire.Replay{Session: sid, Base: 2, IDs: []int32{b, cc, d}}, &done)
	if done.Session != sid || done.Applied != 4 {
		t.Fatalf("Replayed = %+v, want session %d applied 4", done, sid)
	}

	// A second, fully-overlapping replay must be a no-op.
	c2.ask(wire.TReplay, &wire.Replay{Session: sid, Base: 1, IDs: []int32{a, b, cc, d}}, &done)
	if done.Applied != 4 {
		t.Fatalf("overlap Replayed applied = %d, want 4", done.Applied)
	}

	// The model saw exactly a,b,c,d: the next event must be phase:a again.
	c2.send(wire.TPredictAt, wire.AppendPredictAt(nil, sid, 1))
	typ, payload := c2.recv()
	if typ != wire.TPrediction {
		t.Fatalf("predict after replay: got %s", typ)
	}
	pr, ok, err := wire.ParsePrediction(payload)
	if err != nil || !ok {
		t.Fatalf("prediction after replay: ok=%v err=%v", ok, err)
	}
	if pr.EventID != a {
		t.Fatalf("predicted event %d after dedup'd replay, want %d (phase:a)", pr.EventID, a)
	}
}

// TestKeepaliveReapsSilentConns checks keepalive enforcement in both
// directions: a silent connection is reaped within the window, a
// heartbeating one survives many windows.
func TestKeepaliveReapsSilentConns(t *testing.T) {
	dir := t.TempDir()
	synthTrace(t, dir, "bt", 4)
	_, addr := startServer(t, Config{TraceDir: dir, Keepalive: 100 * time.Millisecond})

	t.Run("silent conn reaped", func(t *testing.T) {
		c := dialRaw(t, addr)
		if err := c.NC.SetReadDeadline(time.Now().Add(3 * time.Second)); err != nil {
			t.Fatalf("deadline: %v", err)
		}
		_, _, err := wire.ReadFrame(c.BR, &c.In)
		if err == nil {
			t.Fatalf("unexpected frame from server on a silent connection")
		}
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			t.Fatalf("server kept a silent connection past the keepalive window")
		}
	})

	t.Run("heartbeats keep conn alive", func(t *testing.T) {
		c := dialRaw(t, addr)
		// 8 × 40ms straddles several 100ms windows; each heartbeat must
		// re-arm the reaper.
		for i := 0; i < 8; i++ {
			time.Sleep(40 * time.Millisecond)
			c.send(wire.THeartbeat, nil)
			if typ, _ := c.recv(); typ != wire.THeartbeatAck {
				t.Fatalf("heartbeat %d: got %s", i, typ)
			}
		}
	})
}

// repeatNames tiles a name pattern to exactly total events.
func repeatNames(names []string, total int) []string {
	stream := make([]string, 0, total+len(names))
	for len(stream) < total {
		stream = append(stream, names...)
	}
	return stream[:total]
}

// comparePoint fails the test unless local and remote predictions are
// bit-identical right now.
func comparePoint(t *testing.T, tag string, local, remote threadAPI, horizon int) {
	t.Helper()
	ls, rs := local.PredictSequence(horizon), remote.PredictSequence(horizon)
	if len(ls) != len(rs) {
		t.Fatalf("%s: PredictSequence lengths %d local vs %d remote", tag, len(ls), len(rs))
	}
	for k := range ls {
		if !samePrediction(ls[k], rs[k]) {
			t.Fatalf("%s: step %d: local %+v remote %+v", tag, k, ls[k], rs[k])
		}
	}
	lp, lok := local.PredictAt(4)
	rp, rok := remote.PredictAt(4)
	if lok != rok || !samePrediction(lp, rp) {
		t.Fatalf("%s: PredictAt(4): local %+v/%v remote %+v/%v", tag, lp, lok, rp, rok)
	}
}

// waitReconnect pokes the remote thread until the client completes a
// reconnection beyond prev. The pokes surface the dead socket (triggering
// the reconnect) and then fail open while the client is offline.
func waitReconnect(t *testing.T, c *client.Client, rth *client.Thread, prev uint64) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for c.Stats().Reconnects <= prev {
		rth.PredictAt(1)
		if time.Now().After(deadline) {
			t.Fatalf("reconnect did not complete (stats %+v)", c.Stats())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestRemoteBitIdenticalAcrossReconnect is the resilience acceptance test:
// on every transport tier, a client whose connection is severed mid-stream
// must — after resume (or fresh reopen) and shadow replay — converge to
// predictions bit-identical to an in-process oracle fed the same stream,
// with zero events dropped or duplicated.
func TestRemoteBitIdenticalAcrossReconnect(t *testing.T) {
	dir := t.TempDir()
	names := synthTrace(t, dir, "bt", 96)
	_, tcpAddr, unixAddr := startServerTransports(t, Config{TraceDir: dir})
	ref, err := pythia.LoadTraceSet(filepath.Join(dir, "bt.pythia"))
	if err != nil {
		t.Fatalf("loading trace: %v", err)
	}
	stream := repeatNames(names, 320)
	cuts := map[int]bool{97: true, 211: true}

	cases := []struct {
		name   string
		addr   string
		shared bool
	}{
		{"tcp", tcpAddr, false},
		{"unix", unixAddr, false},
		{"shm", unixAddr, true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			proxy, err := chaosnet.New(tc.addr, chaosnet.Config{})
			if err != nil {
				t.Fatalf("proxy: %v", err)
			}
			defer proxy.Close()

			localOracle, err := pythia.NewPredictOracle(ref, pythia.Config{})
			if err != nil {
				t.Fatalf("local oracle: %v", err)
			}
			local := localThread{localOracle.Thread(0)}

			c, err := client.Dial(proxy.Addr(), client.Config{
				SharedMem:         tc.shared,
				ReconnectMinDelay: 2 * time.Millisecond,
				RequestTimeout:    2 * time.Second,
			})
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			defer func() {
				if err := c.Close(); err != nil {
					t.Errorf("close: %v", err)
				}
			}()
			ro, err := c.Oracle("bt")
			if err != nil {
				t.Fatalf("oracle: %v", err)
			}
			rth := ro.Thread(0)
			local.StartAtBeginning()
			rth.StartAtBeginning()

			wantReconnects := uint64(0)
			for i, name := range stream {
				local.Submit(localOracle.Intern(name))
				rth.Submit(ro.Intern(name))
				if cuts[i] {
					wantReconnects++
					prev := c.Stats().Reconnects
					proxy.CutAll()
					waitReconnect(t, c, rth, prev)
				}
				if i%37 == 0 {
					comparePoint(t, tc.name, local, rth, 16)
				}
			}
			rth.Flush()
			comparePoint(t, tc.name+" final", local, rth, 32)
			if err := c.Err(); err != nil {
				t.Fatalf("client error after convergence: %v", err)
			}
			st := c.Stats()
			if st.Reconnects != wantReconnects {
				t.Fatalf("reconnects = %d, want %d", st.Reconnects, wantReconnects)
			}
			if st.DroppedEvents != 0 {
				t.Fatalf("dropped %d events across reconnects, want 0", st.DroppedEvents)
			}
		})
	}
}

// TestReconnectAcrossDaemonRestart kills the daemon outright and restarts
// it on the same unix socket path: the already-connected client must
// redial (transport.Listen clears the stale socket), fall back from resume
// to a fresh reopen — the restarted daemon knows no tokens — and replay its
// shadow buffer to bit-identical convergence.
func TestReconnectAcrossDaemonRestart(t *testing.T) {
	dir := t.TempDir()
	names := synthTrace(t, dir, "bt", 96)
	sockDir, err := os.MkdirTemp("", "pythia-uds")
	if err != nil {
		t.Fatalf("socket dir: %v", err)
	}
	defer os.RemoveAll(sockDir)
	addr := "unix://" + filepath.Join(sockDir, "d.sock")

	startOn := func() (*Server, chan error) {
		ln, err := transport.Listen(addr)
		if err != nil {
			t.Fatalf("listen %s: %v", addr, err)
		}
		srv := New(Config{TraceDir: dir, DrainTimeout: 100 * time.Millisecond})
		errc := make(chan error, 1)
		go func() { errc <- srv.Serve(ln) }()
		return srv, errc
	}
	srv1, err1 := startOn()

	ref, err := pythia.LoadTraceSet(filepath.Join(dir, "bt.pythia"))
	if err != nil {
		t.Fatalf("loading trace: %v", err)
	}
	localOracle, err := pythia.NewPredictOracle(ref, pythia.Config{})
	if err != nil {
		t.Fatalf("local oracle: %v", err)
	}
	local := localThread{localOracle.Thread(0)}

	c, err := client.Dial(addr, client.Config{
		ReconnectMinDelay: 2 * time.Millisecond,
		RequestTimeout:    2 * time.Second,
	})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	ro, err := c.Oracle("bt")
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	rth := ro.Thread(0)
	local.StartAtBeginning()
	rth.StartAtBeginning()

	stream := repeatNames(names, 160)
	for _, name := range stream[:80] {
		local.Submit(localOracle.Intern(name))
		rth.Submit(ro.Intern(name))
	}
	comparePoint(t, "before restart", local, rth, 16)

	if err := srv1.Shutdown(); err != nil {
		t.Fatalf("shutdown srv1: %v", err)
	}
	if err := <-err1; err != nil {
		t.Fatalf("serve srv1: %v", err)
	}
	srv2, err2 := startOn()
	t.Cleanup(func() {
		if err := srv2.Shutdown(); err != nil {
			t.Errorf("shutdown srv2: %v", err)
		}
		if err := <-err2; err != nil {
			t.Errorf("serve srv2: %v", err)
		}
	})

	waitReconnect(t, c, rth, 0)

	for _, name := range stream[80:] {
		local.Submit(localOracle.Intern(name))
		rth.Submit(ro.Intern(name))
	}
	rth.Flush()
	comparePoint(t, "after restart", local, rth, 32)
	if err := c.Err(); err != nil {
		t.Fatalf("client error after restart recovery: %v", err)
	}
	if st := c.Stats(); st.DroppedEvents != 0 {
		t.Fatalf("dropped %d events across the restart, want 0", st.DroppedEvents)
	}
}

// TestChaosMatrix drives the client through a chaosnet proxy injecting a
// deterministic fault schedule, then mutes the faults and requires
// convergence to bit-identical predictions. The default run covers a
// reduced matrix; PYTHIA_CHAOS=1 (the check.sh --chaos leg) runs all of it.
func TestChaosMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos matrix reconnects through injected faults")
	}
	dir := t.TempDir()
	names := synthTrace(t, dir, "bt", 96)
	_, tcpAddr, unixAddr := startServerTransports(t, Config{TraceDir: dir})
	ref, err := pythia.LoadTraceSet(filepath.Join(dir, "bt.pythia"))
	if err != nil {
		t.Fatalf("loading trace: %v", err)
	}
	stream := repeatNames(names, 256)

	type matrixCase struct {
		name   string
		addr   string
		shared bool
		faults chaosnet.Config
	}
	cases := []matrixCase{
		{"tcp-resets", tcpAddr, false, chaosnet.Config{Seed: 7, ResetEvery: 9}},
		{"unix-torn", unixAddr, false, chaosnet.Config{Seed: 11, TornEvery: 13}},
	}
	if os.Getenv("PYTHIA_CHAOS") == "1" {
		cases = append(cases,
			matrixCase{"tcp-latency-drops", tcpAddr, false, chaosnet.Config{Seed: 3, Latency: 200 * time.Microsecond, DropEvery: 17}},
			matrixCase{"unix-stalls", unixAddr, false, chaosnet.Config{Seed: 5, StallEvery: 11, StallFor: 30 * time.Millisecond}},
			matrixCase{"shm-resets", unixAddr, true, chaosnet.Config{Seed: 9, ResetEvery: 7}},
		)
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			proxy, err := chaosnet.New(tc.addr, tc.faults)
			if err != nil {
				t.Fatalf("proxy: %v", err)
			}
			defer proxy.Close()

			localOracle, err := pythia.NewPredictOracle(ref, pythia.Config{})
			if err != nil {
				t.Fatalf("local oracle: %v", err)
			}
			local := localThread{localOracle.Thread(0)}

			// Dialing and opening the oracle go through the faulty proxy
			// themselves; retry until the handshake slips between faults.
			setup := time.Now().Add(10 * time.Second)
			var c *client.Client
			for {
				c, err = client.Dial(proxy.Addr(), client.Config{
					SharedMem:         tc.shared,
					ReconnectMinDelay: 2 * time.Millisecond,
					DialTimeout:       2 * time.Second,
					RequestTimeout:    2 * time.Second,
				})
				if err == nil {
					break
				}
				if time.Now().After(setup) {
					t.Fatalf("dial through chaos: %v", err)
				}
				time.Sleep(10 * time.Millisecond)
			}
			defer c.Close()
			var ro *client.Oracle
			for {
				ro, err = c.Oracle("bt")
				if err == nil {
					break
				}
				if time.Now().After(setup) {
					t.Fatalf("oracle through chaos: %v", err)
				}
				time.Sleep(10 * time.Millisecond)
			}
			rth := ro.Thread(0)

			for i, name := range stream {
				local.Submit(localOracle.Intern(name))
				rth.Submit(ro.Intern(name))
				if i%19 == 0 {
					rth.PredictAt(2) // keeps round trips in the fault path; result irrelevant
				}
			}

			proxy.ClearFaults()
			deadline := time.Now().Add(30 * time.Second)
			for {
				rth.Flush()
				if c.Err() == nil {
					if _, ok := rth.PredictAt(1); ok {
						break
					}
				}
				if time.Now().After(deadline) {
					t.Fatalf("no convergence after chaos: err=%v stats=%+v", c.Err(), c.Stats())
				}
				time.Sleep(5 * time.Millisecond)
			}
			comparePoint(t, tc.name, local, rth, 24)
			if st := c.Stats(); st.DroppedEvents != 0 {
				t.Fatalf("dropped %d events under chaos, want 0", st.DroppedEvents)
			}
		})
	}
}

// TestRemoteBitIdenticalFleetFailover extends the reconnect acceptance
// test to a two-daemon fleet: the tenant's model is replicated to the
// second daemon by the cluster sweep, the client's dial list is the
// tenant's assignment (owner first, replica second), and the owner is
// partitioned away mid-stream. The client must redial onto the warm
// replica, reopen fresh (the replica knows no resume token), replay its
// shadow ring, and converge to predictions bit-identical to an in-process
// oracle fed the same stream — zero events dropped or duplicated.
func TestRemoteBitIdenticalFleetFailover(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	names := synthTrace(t, dirA, "bt", 96)
	srvA, addrA := startServer(t, Config{TraceDir: dirA})
	srvB, addrB := startServer(t, Config{TraceDir: dirB})

	// Clients reach the daemons through chaos proxies, so the fleet
	// addresses — what the shard map advertises and what daemons dial for
	// replication — are the proxy fronts.
	proxyA, err := chaosnet.New(addrA, chaosnet.Config{})
	if err != nil {
		t.Fatalf("proxy A: %v", err)
	}
	defer proxyA.Close()
	proxyB, err := chaosnet.New(addrB, chaosnet.Config{})
	if err != nil {
		t.Fatalf("proxy B: %v", err)
	}
	defer proxyB.Close()
	daemons := []string{proxyA.Addr(), proxyB.Addr()}
	srvA.ConfigureCluster(daemons[0], daemons, 1, 1)
	srvB.ConfigureCluster(daemons[1], daemons, 1, 1)

	// The startup sweep ships bt from A to B (whoever owns it, one replica
	// on a two-daemon fleet means both hold it).
	waitForFile(t, filepath.Join(dirB, "bt.pythia"))

	ref, err := pythia.LoadTraceSet(filepath.Join(dirA, "bt.pythia"))
	if err != nil {
		t.Fatalf("loading trace: %v", err)
	}
	localOracle, err := pythia.NewPredictOracle(ref, pythia.Config{})
	if err != nil {
		t.Fatalf("local oracle: %v", err)
	}
	local := localThread{localOracle.Thread(0)}

	m := srvA.ClusterMap()
	assignment := m.Assignment("bt")
	if len(assignment) != 2 {
		t.Fatalf("assignment %v, want owner+replica", assignment)
	}
	ownerProxy := proxyA
	if assignment[0] == proxyB.Addr() {
		ownerProxy = proxyB
	}

	stream := repeatNames(names, 320)
	c, err := client.Dial(assignment[0]+","+assignment[1], client.Config{
		ReconnectMinDelay: 2 * time.Millisecond,
		RequestTimeout:    2 * time.Second,
	})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer func() {
		if err := c.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	ro, err := c.Oracle("bt")
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	rth := ro.Thread(0)
	local.StartAtBeginning()
	rth.StartAtBeginning()

	killAt := 137
	for i, name := range stream {
		local.Submit(localOracle.Intern(name))
		rth.Submit(ro.Intern(name))
		if i == killAt {
			// Full partition of the owner: existing connections die and
			// redials are refused, so the fallback address — the warm
			// replica — is the only way back.
			prev := c.Stats().Reconnects
			ownerProxy.SetEnabled(false)
			ownerProxy.CutAll()
			waitReconnect(t, c, rth, prev)
		}
		if i%37 == 0 {
			comparePoint(t, "fleet", local, rth, 16)
		}
	}
	rth.Flush()
	comparePoint(t, "fleet final", local, rth, 32)
	if err := c.Err(); err != nil {
		t.Fatalf("client error after failover: %v", err)
	}
	st := c.Stats()
	if st.DroppedEvents != 0 {
		t.Fatalf("dropped %d events across the failover, want 0", st.DroppedEvents)
	}
	if st.Reconnects == 0 {
		t.Fatal("the partition never forced a reconnect")
	}
}

// frameLog is a listener wrapper that records, per accepted connection, the
// bytes the server reads from it — the client→server half of the
// conversation, framed exactly as the client wrote it.
type frameLog struct {
	net.Listener
	mu    sync.Mutex
	conns []*loggedConn
}

type loggedConn struct {
	net.Conn
	log *frameLog
	in  []byte // guarded by log.mu
}

func (l *frameLog) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	lc := &loggedConn{Conn: nc, log: l}
	l.mu.Lock()
	l.conns = append(l.conns, lc)
	l.mu.Unlock()
	return lc, nil
}

func (c *loggedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.log.mu.Lock()
	c.in = append(c.in, p[:n]...)
	c.log.mu.Unlock()
	return n, err
}

// cut severs every connection accepted so far, daemon side first.
func (l *frameLog) cut(t *testing.T) {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range l.conns {
		if err := c.Conn.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
			t.Errorf("cutting: %v", err)
		}
	}
}

// frames returns the frame types the server has read on the i-th accepted
// connection. Everything up to the client's latest completed round trip is
// in; a frame written to a connection already cut is not.
func (l *frameLog) frames(t *testing.T, i int) []wire.Type {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	if i >= len(l.conns) {
		t.Fatalf("connection %d never arrived (%d accepted)", i, len(l.conns))
	}
	br := bufio.NewReader(bytes.NewReader(l.conns[i].in))
	var types []wire.Type
	var buf []byte
	for {
		typ, _, err := wire.ReadFrame(br, &buf)
		if err != nil {
			return types
		}
		types = append(types, typ)
	}
}

// serveLogged starts a daemon over dir on addr behind a frameLog.
func serveLogged(t *testing.T, dir, addr string) (*Server, *frameLog) {
	t.Helper()
	ln, err := transport.Listen(addr)
	if err != nil {
		t.Fatalf("listen %s: %v", addr, err)
	}
	log := &frameLog{Listener: ln}
	srv := New(Config{TraceDir: dir, DrainTimeout: 100 * time.Millisecond})
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(log) }()
	t.Cleanup(func() {
		if err := srv.Shutdown(); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-errc; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return srv, log
}

// waitParked blocks until the daemon has parked n dead connections, so a
// client that redials afterwards is certain to find its sessions.
func waitParked(t *testing.T, srv *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		srv.parkMu.Lock()
		parked := len(srv.parked)
		srv.parkMu.Unlock()
		if parked == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d connections parked, want %d", parked, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// redial makes the client notice its dead connection (one failed round
// trip, written to a socket nobody reads) and waits, without touching the
// wire again, until the connect pipeline has replaced it.
func redial(t *testing.T, c *client.Client, th *client.Thread) {
	t.Helper()
	prev := c.Stats().Reconnects
	if _, ok := th.PredictAt(1); ok {
		t.Fatal("PredictAt answered over a cut connection")
	}
	awaitReconnect(t, c, prev)
}

// awaitReconnect waits for the client's reconnect count to pass prev.
func awaitReconnect(t *testing.T, c *client.Client, prev uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for c.Stats().Reconnects == prev {
		if time.Now().After(deadline) {
			t.Fatalf("no reconnect (err %v)", c.Err())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestConnectPipelineFrames is the connect pipeline's specification: the
// exact frames the client sends, connection by connection, for a first
// connect, a resume, a reopen from scratch and a shared-memory negotiation.
// The round trips a host pays for are these and no others.
func TestConnectPipelineFrames(t *testing.T) {
	dir := t.TempDir()
	names := synthTrace(t, dir, "bt", 8)
	sockDir, err := os.MkdirTemp("", "pythia-uds")
	if err != nil {
		t.Fatalf("socket dir: %v", err)
	}
	defer os.RemoveAll(sockDir)
	unixAddr := "unix://" + filepath.Join(sockDir, "d.sock")

	// open dials, opens the tenant and takes thread 0 through its first
	// Submit and PredictAt.
	open := func(t *testing.T, addr string, cfg client.Config) (*client.Client, *client.Oracle, *client.Thread) {
		t.Helper()
		cfg.RequestTimeout = 2 * time.Second
		cfg.ReconnectMinDelay = 2 * time.Millisecond
		c, err := client.Dial(addr, cfg)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		o, err := c.Oracle("bt")
		if err != nil {
			t.Fatalf("oracle: %v", err)
		}
		th := o.Thread(0)
		th.Submit(o.Intern(names[0]))
		if _, ok := th.PredictAt(1); !ok {
			t.Fatal("no prediction on the first connection")
		}
		return c, o, th
	}
	// step submits one more event and asks again; on a replaced connection
	// this is the thread's first activity, so it carries the replay.
	step := func(t *testing.T, o *client.Oracle, th *client.Thread) {
		t.Helper()
		th.Submit(o.Intern(names[1]))
		if _, ok := th.PredictAt(1); !ok {
			t.Fatalf("no prediction after recovery (err %v)", o.Health().Cause)
		}
	}
	expect := func(t *testing.T, log *frameLog, conn int, want ...wire.Type) {
		t.Helper()
		if got := log.frames(t, conn); !slices.Equal(got, want) {
			t.Errorf("connection %d: client sent %v, want %v", conn, got, want)
		}
	}
	first := []wire.Type{wire.THello, wire.TOpenSession, wire.TOpenSession, wire.TSubmitBatch, wire.TPredictAt}

	t.Run("first connect", func(t *testing.T) {
		_, log := serveLogged(t, dir, "127.0.0.1:0")
		c, _, _ := open(t, log.Addr().String(), client.Config{})
		defer c.Close()
		expect(t, log, 0, first...)
	})

	t.Run("cut, resume, replay", func(t *testing.T) {
		srv, log := serveLogged(t, dir, "127.0.0.1:0")
		c, o, th := open(t, log.Addr().String(), client.Config{})
		defer c.Close()
		log.cut(t)
		waitParked(t, srv, 1)
		redial(t, c, th)
		step(t, o, th)
		expect(t, log, 0, first...)
		expect(t, log, 1, wire.THello, wire.TResume, wire.TReplay, wire.TPredictAt)
	})

	t.Run("daemon restart, reopen, replay", func(t *testing.T) {
		srv1, log1 := serveLogged(t, dir, unixAddr)
		c, o, th := open(t, unixAddr, client.Config{})
		defer c.Close()
		// Shutdown closes the listener and sweeps the park table; the next
		// daemon on the same socket knows no tokens.
		if err := srv1.Shutdown(); err != nil {
			t.Fatalf("shutdown: %v", err)
		}
		_, log2 := serveLogged(t, dir, unixAddr)
		redial(t, c, th)
		step(t, o, th)
		expect(t, log1, 0, first...)
		expect(t, log2, 0, wire.THello, wire.TResume, wire.TOpenSession,
			wire.TOpenSession, wire.TReplay, wire.TPredictAt)
	})

	t.Run("shm negotiate", func(t *testing.T) {
		_, log := serveLogged(t, dir, unixAddr)
		c, _, _ := open(t, unixAddr, client.Config{SharedMem: true})
		defer c.Close()
		if got := c.Transport(); got != "shm" {
			t.Fatalf("transport %q, want shm", got)
		}
		// The first Submit binds a ring and travels through it: no
		// SubmitBatch frame.
		expect(t, log, 0, wire.THello, wire.TShmSetup, wire.TOpenSession,
			wire.TOpenSession, wire.TShmBind, wire.TPredictAt)
	})
}

// TestResumeClosesUnclaimedSessions: an oracle closed while the client was
// offline cannot close its sessions; if they come back in a resume, the
// restore pass must close them rather than leave them charged to the
// daemon's budgets for the life of the new connection.
func TestResumeClosesUnclaimedSessions(t *testing.T) {
	dir := t.TempDir()
	names := synthTrace(t, dir, "bt", 8)
	synthTrace(t, dir, "cg", 8)
	srv, log := serveLogged(t, dir, "127.0.0.1:0")
	c, err := client.Dial(log.Addr().String(), client.Config{
		RequestTimeout:    2 * time.Second,
		ReconnectMinDelay: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	var ths []*client.Thread
	var os []*client.Oracle
	for _, tenant := range []string{"bt", "cg"} {
		o, err := c.Oracle(tenant)
		if err != nil {
			t.Fatalf("oracle: %v", err)
		}
		th := o.Thread(0)
		th.Submit(o.Intern(names[0]))
		if _, ok := th.PredictAt(1); !ok {
			t.Fatal("no prediction")
		}
		os, ths = append(os, o), append(ths, th)
	}
	if got := srv.Sessions(); got != 4 {
		t.Fatalf("%d sessions open, want 4 (two metas, two threads)", got)
	}
	log.cut(t)
	waitParked(t, srv, 1)
	if _, ok := ths[0].PredictAt(1); ok {
		t.Fatal("PredictAt answered over a cut connection")
	}
	prev := c.Stats().Reconnects
	if err := os[0].Close(); err != nil { // offline: nothing it can send
		t.Fatalf("close while offline: %v", err)
	}
	awaitReconnect(t, c, prev)
	if got := srv.Sessions(); got != 2 {
		t.Fatalf("%d sessions open after the resume, want the live oracle's 2", got)
	}
	if _, ok := ths[1].PredictAt(1); !ok {
		t.Fatal("the surviving oracle lost its session")
	}
}

// TestReconnectRefusesChangedEventTable: a daemon that comes back serving a
// different trace under the tenant's name must not be predicted from — the
// oracle's interned ids would mean other events. The reopen disables that
// oracle (fail-open, the cause in Health) and keeps the connection.
func TestReconnectRefusesChangedEventTable(t *testing.T) {
	dir1, dir2 := t.TempDir(), t.TempDir()
	names := synthTrace(t, dir1, "bt", 8)
	other := pythia.NewRecordOracle(pythia.WithoutTimestamps())
	for i := 0; i < 8; i++ {
		other.Thread(0).Submit(other.Intern("something:else"))
	}
	ts, err := other.Finish()
	if err != nil {
		t.Fatalf("finishing the other trace: %v", err)
	}
	if err := pythia.SaveTraceSet(filepath.Join(dir2, "bt.pythia"), ts); err != nil {
		t.Fatalf("saving the other trace: %v", err)
	}
	sockDir, err := os.MkdirTemp("", "pythia-uds")
	if err != nil {
		t.Fatalf("socket dir: %v", err)
	}
	defer os.RemoveAll(sockDir)
	addr := "unix://" + filepath.Join(sockDir, "d.sock")

	srv1, _ := serveLogged(t, dir1, addr)
	c, err := client.Dial(addr, client.Config{
		RequestTimeout:    2 * time.Second,
		ReconnectMinDelay: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	o, err := c.Oracle("bt")
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	th := o.Thread(0)
	th.Submit(o.Intern(names[0]))
	if _, ok := th.PredictAt(1); !ok {
		t.Fatal("no prediction before the restart")
	}
	if err := srv1.Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	srv2, _ := serveLogged(t, dir2, addr)
	redial(t, c, th)

	th.Submit(o.Intern(names[1]))
	if _, ok := th.PredictAt(1); ok {
		t.Fatal("predicted from a trace with a different event table")
	}
	if err := c.Err(); err != nil {
		t.Fatalf("the connection itself must be healthy: %v", err)
	}
	h := o.Health()
	if h.State != pythia.Degraded || !strings.Contains(h.Cause, "event table changed") {
		t.Fatalf("health = %s %q, want degraded by the event-table check", h.State, h.Cause)
	}
	if got := srv2.Sessions(); got != 1 {
		t.Fatalf("%d sessions on the new daemon, want only the meta session", got)
	}
}
