package server

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/harness"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/pythia"
	"repro/pythia/client"
)

// recordTrace records one app at a class/seed and saves it as a tenant
// trace file in dir.
func recordTrace(t *testing.T, dir, tenant string, app apps.App, class apps.Class, seed int64) {
	t.Helper()
	oracle := pythia.NewRecordOracle()
	run, err := harness.RunMPIAppWithOracle(oracle, app, class, seed)
	if err != nil {
		t.Fatalf("recording %s: %v", app.Name, err)
	}
	if err := pythia.SaveTraceSet(filepath.Join(dir, tenant+".pythia"), run.Trace); err != nil {
		t.Fatalf("saving %s: %v", tenant, err)
	}
}

// synthTrace records a single-thread repeating pattern and saves it as a
// tenant trace file; it returns the pattern's descriptor names.
func synthTrace(t testing.TB, dir, tenant string, reps int) []string {
	t.Helper()
	oracle := pythia.NewRecordOracle(pythia.WithoutTimestamps())
	names := []string{"phase:a", "phase:b", "phase:c", "phase:d"}
	th := oracle.Thread(0)
	for i := 0; i < reps; i++ {
		for _, n := range names {
			th.Submit(oracle.Intern(n))
		}
	}
	ts, err := oracle.Finish()
	if err != nil {
		t.Fatalf("finishing synthetic trace: %v", err)
	}
	if err := pythia.SaveTraceSet(filepath.Join(dir, tenant+".pythia"), ts); err != nil {
		t.Fatalf("saving synthetic trace: %v", err)
	}
	return names
}

// startServer serves cfg on a fresh localhost port and returns the server
// and its address. Shutdown runs at test cleanup.
func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := New(cfg)
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	t.Cleanup(func() {
		if err := srv.Shutdown(); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-serveErr; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return srv, ln.Addr().String()
}

// samePrediction is bit-level equality, including the float fields.
func samePrediction(a, b pythia.Prediction) bool {
	return a.EventID == b.EventID && a.Distance == b.Distance &&
		math.Float64bits(a.Probability) == math.Float64bits(b.Probability) &&
		math.Float64bits(a.ExpectedNs) == math.Float64bits(b.ExpectedNs)
}

// oracleAPI is the method set shared by the in-process and remote oracles;
// the differential test drives both through it so the call sequences are
// identical by construction.
type oracleAPI interface {
	Intern(name string, args ...int64) pythia.ID
	EventName(id pythia.ID) string
}

// threadAPI likewise for the per-thread handles.
type threadAPI interface {
	Submit(id pythia.ID)
	StartAtBeginning()
	PredictAt(distance int) (pythia.Prediction, bool)
	PredictSequence(n int) []pythia.Prediction
	PredictDurationUntil(id pythia.ID, maxDistance int) (pythia.Prediction, bool)
}

// localThread adapts *pythia.Thread (methods with value receivers differ)
// to threadAPI.
type localThread struct{ th *pythia.Thread }

func (l localThread) Submit(id pythia.ID)                       { l.th.Submit(id) }
func (l localThread) StartAtBeginning()                         { l.th.StartAtBeginning() }
func (l localThread) PredictAt(d int) (pythia.Prediction, bool) { return l.th.PredictAt(d) }
func (l localThread) PredictSequence(n int) []pythia.Prediction { return l.th.PredictSequence(n) }
func (l localThread) PredictDurationUntil(id pythia.ID, maxD int) (pythia.Prediction, bool) {
	return l.th.PredictDurationUntil(id, maxD)
}

// replayResult is every prediction gathered while replaying one stream.
type replayResult struct {
	seqs  [][]pythia.Prediction
	ats   []pythia.Prediction
	atOKs []bool
	durs  []pythia.Prediction
	durOK []bool
}

// replayStream submits one thread's stream, querying at a deterministic
// sample of points.
func replayStream(o oracleAPI, th threadAPI, stream []string, maxDist int) replayResult {
	var res replayResult
	th.StartAtBeginning()
	stride := len(stream) / 24
	if stride == 0 {
		stride = 1
	}
	durTarget := pythia.ID(-1)
	for i, name := range stream {
		id := o.Intern(name)
		if durTarget < 0 && harness.IsBlockingEvent(name) {
			durTarget = id
		}
		th.Submit(id)
		if i%stride != 0 {
			continue
		}
		res.seqs = append(res.seqs, th.PredictSequence(maxDist))
		for _, d := range []int{1, 8, maxDist} {
			pr, ok := th.PredictAt(d)
			res.ats = append(res.ats, pr)
			res.atOKs = append(res.atOKs, ok)
		}
		if durTarget >= 0 {
			pr, ok := th.PredictDurationUntil(durTarget, maxDist)
			res.durs = append(res.durs, pr)
			res.durOK = append(res.durOK, ok)
		}
	}
	return res
}

// diffResults fails the test on the first non-bit-identical prediction.
func diffResults(t *testing.T, tid int32, local, remote replayResult) {
	t.Helper()
	if len(local.seqs) != len(remote.seqs) {
		t.Fatalf("tid %d: %d local vs %d remote sequence queries", tid, len(local.seqs), len(remote.seqs))
	}
	for q := range local.seqs {
		ls, rs := local.seqs[q], remote.seqs[q]
		if len(ls) != len(rs) {
			t.Fatalf("tid %d query %d: PredictSequence lengths %d vs %d", tid, q, len(ls), len(rs))
		}
		for i := range ls {
			if !samePrediction(ls[i], rs[i]) {
				t.Fatalf("tid %d query %d step %d: local %+v remote %+v", tid, q, i, ls[i], rs[i])
			}
		}
	}
	for i := range local.ats {
		if local.atOKs[i] != remote.atOKs[i] || !samePrediction(local.ats[i], remote.ats[i]) {
			t.Fatalf("tid %d PredictAt query %d: local %+v/%v remote %+v/%v",
				tid, i, local.ats[i], local.atOKs[i], remote.ats[i], remote.atOKs[i])
		}
	}
	for i := range local.durs {
		if local.durOK[i] != remote.durOK[i] || !samePrediction(local.durs[i], remote.durs[i]) {
			t.Fatalf("tid %d PredictDurationUntil query %d: local %+v/%v remote %+v/%v",
				tid, i, local.durs[i], local.durOK[i], remote.durs[i], remote.durOK[i])
		}
	}
}

// startServerTransports serves one Server on both a TCP and a unix
// listener, returning the TCP address and the unix address (scheme-
// prefixed, ready for client.Dial).
func startServerTransports(t testing.TB, cfg Config) (*Server, string, string) {
	t.Helper()
	tln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("tcp listen: %v", err)
	}
	// A short private dir keeps the socket path inside the sun_path limit
	// (t.TempDir names grow with the test name).
	sockDir, err := os.MkdirTemp("", "pythia-uds")
	if err != nil {
		t.Fatalf("socket dir: %v", err)
	}
	unixAddr := "unix://" + filepath.Join(sockDir, "d.sock")
	uln, err := transport.Listen(unixAddr)
	if err != nil {
		t.Fatalf("unix listen: %v", err)
	}
	srv := New(cfg)
	serveErr := make(chan error, 2)
	go func() { serveErr <- srv.Serve(tln) }()
	go func() { serveErr <- srv.Serve(uln) }()
	t.Cleanup(func() {
		if err := srv.Shutdown(); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		for i := 0; i < 2; i++ {
			if err := <-serveErr; err != nil {
				t.Errorf("serve: %v", err)
			}
		}
		if err := os.RemoveAll(sockDir); err != nil {
			t.Errorf("removing socket dir: %v", err)
		}
	})
	return srv, tln.Addr().String(), unixAddr
}

// TestRemoteBitIdenticalAllApps is the differential acceptance test: every
// app kernel replayed through pythia/client against a local pythiad — over
// every transport tier — must produce predictions bit-identical to the
// in-process oracle fed the same stream.
func TestRemoteBitIdenticalAllApps(t *testing.T) {
	if testing.Short() {
		t.Skip("records and replays all 13 applications")
	}
	dir := t.TempDir()
	for _, app := range apps.All() {
		recordTrace(t, dir, app.Name, app, apps.Small, 42)
	}
	_, tcpAddr, unixAddr := startServerTransports(t, Config{TraceDir: dir})
	transports := []struct {
		name string
		addr string
		cfg  client.Config
	}{
		{"tcp", tcpAddr, client.Config{}},
		{"unix", unixAddr, client.Config{}},
		{"shm", unixAddr, client.Config{SharedMem: true}},
	}

	// A two-daemon fleet over the same trace dir, no replicas: every
	// tenant has exactly one owner, so a forced epoch bump flips roughly
	// half the tenants and the fleet client must reroute through the
	// non-fatal CodeWrongShard refusal — with predictions bit-identical
	// before and after.
	fleetA, fleetAddrA := startServer(t, Config{TraceDir: dir})
	fleetB, fleetAddrB := startServer(t, Config{TraceDir: dir})
	fleetDaemons := []string{fleetAddrA, fleetAddrB}
	fleetEpoch := uint64(1)
	configureFleet := func(epoch uint64) {
		fleetA.ConfigureCluster(fleetDaemons[0], fleetDaemons, epoch, 0)
		fleetB.ConfigureCluster(fleetDaemons[1], fleetDaemons, epoch, 0)
	}
	configureFleet(fleetEpoch)
	fleet, err := client.DialFleet(fleetAddrA+","+fleetAddrB, client.Config{})
	if err != nil {
		t.Fatalf("dialing fleet: %v", err)
	}
	t.Cleanup(func() {
		if err := fleet.Close(); err != nil {
			t.Errorf("closing fleet: %v", err)
		}
	})

	const maxDist = 32
	for _, app := range apps.All() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			// The replayed execution uses a different seed than the
			// recording, so data-dependent apps diverge and the oracle
			// must re-anchor — on both sides identically.
			streams := harness.CaptureStreams(app, apps.Small, 43)
			ref, err := pythia.LoadTraceSet(filepath.Join(dir, app.Name+".pythia"))
			if err != nil {
				t.Fatalf("loading trace: %v", err)
			}
			localOracle, err := pythia.NewPredictOracle(ref, pythia.Config{})
			if err != nil {
				t.Fatalf("local oracle: %v", err)
			}
			tids := make([]int32, 0, len(streams))
			for tid := range streams {
				tids = append(tids, tid)
			}
			sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })
			// One local replay per thread, compared against every transport.
			locals := make(map[int32]replayResult, len(tids))
			for _, tid := range tids {
				locals[tid] = replayStream(localOracle, localThread{localOracle.Thread(tid)}, streams[tid], maxDist)
			}

			for _, tr := range transports {
				tr := tr
				t.Run(tr.name, func(t *testing.T) {
					remoteOracle, err := client.Connect(tr.addr, app.Name, tr.cfg)
					if err != nil {
						t.Fatalf("remote oracle: %v", err)
					}
					defer func() {
						if err := remoteOracle.Close(); err != nil {
							t.Errorf("closing remote oracle: %v", err)
						}
					}()
					if got := remoteOracle.Transport(); got != tr.name {
						t.Fatalf("negotiated transport %q, want %q", got, tr.name)
					}
					for _, tid := range tids {
						remote := replayStream(remoteOracle, remoteOracle.Thread(tid), streams[tid], maxDist)
						diffResults(t, tid, locals[tid], remote)
					}
				})
			}

			// Same replay routed by shard map through the two-daemon
			// fleet, then once more after a forced epoch bump (which
			// reassigns tenants, so a stale cached map must be corrected
			// via CodeWrongShard + refresh).
			for _, leg := range []string{"fleet", "fleet-epoch-bump"} {
				leg := leg
				t.Run(leg, func(t *testing.T) {
					if leg == "fleet-epoch-bump" {
						fleetEpoch++
						configureFleet(fleetEpoch)
					}
					remoteOracle, err := fleet.Oracle(app.Name)
					if err != nil {
						t.Fatalf("fleet oracle: %v", err)
					}
					defer func() {
						if err := remoteOracle.Close(); err != nil {
							t.Errorf("closing fleet oracle: %v", err)
						}
					}()
					for _, tid := range tids {
						remote := replayStream(remoteOracle, remoteOracle.Thread(tid), streams[tid], maxDist)
						diffResults(t, tid, locals[tid], remote)
					}
				})
			}
		})
	}
}

// rawConn is a wire-level test client for asserting exact protocol frames.
type rawConn struct {
	t testing.TB
	*wire.Conn
}

func dialRaw(t testing.TB, addr string) *rawConn {
	t.Helper()
	c, _ := dialRawHello(t, addr, 0)
	return c
}

// dialRawHello dials addr (tcp "host:port" or "unix://path") and
// handshakes with the given Hello flags, returning the server's HelloOK
// alongside the connection.
func dialRawHello(t testing.TB, addr string, flags uint8) (*rawConn, wire.HelloOK) {
	t.Helper()
	nc, _, err := transport.Dial(addr, 2*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	c := &rawConn{t: t, Conn: wire.NewConn(nc)}
	t.Cleanup(func() {
		if err := nc.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
			t.Logf("closing raw conn: %v", err)
		}
	})
	ok, err := c.Handshake(flags, 5*time.Second)
	if err != nil {
		t.Fatalf("handshake: %v", err)
	}
	return c, ok
}

func (c *rawConn) send(t wire.Type, payload []byte) {
	c.t.Helper()
	if err := wire.WriteFrame(c.BW, t, payload); err != nil {
		c.t.Fatalf("write %s: %v", t, err)
	}
	if err := c.BW.Flush(); err != nil {
		c.t.Fatalf("flush %s: %v", t, err)
	}
}

// sendMsg sends m as one frame of type t.
func (c *rawConn) sendMsg(t wire.Type, m wire.Message) {
	c.t.Helper()
	c.send(t, wire.Append(nil, m))
}

// recvMsg asserts the next frame is a t and decodes it into m.
func (c *rawConn) recvMsg(t wire.Type, m wire.Message) {
	c.t.Helper()
	typ, payload := c.recv()
	if typ != t {
		c.t.Fatalf("expected %s frame, got %s", t, typ)
	}
	if err := wire.Decode(typ, payload, m); err != nil {
		c.t.Fatalf("decoding %s: %v", typ, err)
	}
}

// ask sends req as a frame of type t and decodes the frame table's reply
// for t into resp.
func (c *rawConn) ask(t wire.Type, req, resp wire.Message) {
	c.t.Helper()
	c.sendMsg(t, req)
	c.recvMsg(t.Reply(), resp)
}

func (c *rawConn) recv() (wire.Type, []byte) {
	c.t.Helper()
	if err := c.NC.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		c.t.Fatalf("deadline: %v", err)
	}
	typ, payload, err := wire.ReadFrame(c.BR, &c.In)
	if err != nil {
		c.t.Fatalf("read frame: %v", err)
	}
	return typ, payload
}

// expectError asserts the next frame is an Error with the given code.
func (c *rawConn) expectError(code wire.Code) {
	c.t.Helper()
	var re wire.RemoteError
	c.recvMsg(wire.TError, &re)
	if re.Code != code {
		c.t.Fatalf("error code = %s (%s), want %s", re.Code, re.Msg, code)
	}
}

// openSession opens a session and returns its id.
func (c *rawConn) openSession(tenant string, tid int32, flags uint8) uint32 {
	c.t.Helper()
	c.send(wire.TOpenSession, wire.AppendOpenSession(nil, wire.OpenSession{TID: tid, Flags: flags, Tenant: tenant}))
	typ, payload := c.recv()
	if typ != wire.TSessionOpened {
		c.t.Fatalf("expected SessionOpened, got %s", typ)
	}
	so, err := wire.ParseSessionOpened(payload)
	if err != nil {
		c.t.Fatalf("parsing SessionOpened: %v", err)
	}
	return so.Session
}

func TestGracefulDrain(t *testing.T) {
	dir := t.TempDir()
	names := synthTrace(t, dir, "synth", 256)
	srv, addr := startServer(t, Config{TraceDir: dir, DrainTimeout: 2 * time.Second})

	c := dialRaw(t, addr)
	sid := c.openSession("synth", 0, wire.FlagStartAtBeginning)
	reg := regFor(t, c, "synth")
	for i := 0; i < 8; i++ {
		c.send(wire.TSubmitBatch, wire.AppendSubmitBatch(nil, sid, []int32{int32(reg[names[i%len(names)]])}))
	}

	shutdownDone := make(chan error, 1)
	start := time.Now()
	go func() { shutdownDone <- srv.Shutdown() }()

	// Wait for the drain flag to take effect: new sessions must be refused
	// with a protocol Error frame, not a stall.
	deadline := time.Now().Add(3 * time.Second)
	for {
		c.send(wire.TOpenSession, wire.AppendOpenSession(nil, wire.OpenSession{TID: 1, Tenant: "synth"}))
		typ, payload := c.recv()
		if typ == wire.TError {
			var re wire.RemoteError
			if err := wire.Decode(typ, payload, &re); err != nil {
				t.Fatalf("parsing refusal: %v", err)
			}
			if re.Code != wire.CodeDraining {
				t.Fatalf("refusal code = %s, want draining", re.Code)
			}
			break
		}
		if typ != wire.TSessionOpened {
			t.Fatalf("unexpected %s frame", typ)
		}
		// Not draining yet: close the session we just opened and retry.
		so, err := wire.ParseSessionOpened(payload)
		if err != nil {
			t.Fatalf("parsing SessionOpened: %v", err)
		}
		c.ask(wire.TCloseSession, &wire.SessionRef{Session: so.Session}, &wire.SessionRef{})
		if time.Now().After(deadline) {
			t.Fatal("server never started refusing sessions")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// An outstanding request on the existing session is still answered.
	c.send(wire.TPredictAt, wire.AppendPredictAt(nil, sid, 1))
	typ, payload := c.recv()
	if typ != wire.TPrediction {
		t.Fatalf("during drain: expected Prediction, got %s", typ)
	}
	pr, ok, err := wire.ParsePrediction(payload)
	if err != nil || !ok {
		t.Fatalf("during drain: prediction ok=%v err=%v", ok, err)
	}
	if got := reg[names[8%len(names)]]; pr.EventID != int32(got) {
		t.Fatalf("during drain: predicted event %d, want %d", pr.EventID, got)
	}

	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if took := time.Since(start); took > 4*time.Second {
		t.Fatalf("drain took %v, want within the drain bound", took)
	}
	if n := srv.Sessions(); n != 0 {
		t.Fatalf("%d sessions still open after drain", n)
	}
}

// regFor fetches a tenant's event table over a meta session and returns a
// name → id map.
func regFor(t testing.TB, c *rawConn, tenant string) map[string]pythia.ID {
	t.Helper()
	c.send(wire.TOpenSession, wire.AppendOpenSession(nil, wire.OpenSession{TID: -1, Flags: wire.FlagWantEvents, Tenant: tenant}))
	typ, payload := c.recv()
	if typ != wire.TSessionOpened {
		t.Fatalf("expected SessionOpened, got %s", typ)
	}
	so, err := wire.ParseSessionOpened(payload)
	if err != nil {
		t.Fatalf("parsing SessionOpened: %v", err)
	}
	reg := make(map[string]pythia.ID, len(so.Events))
	for i, name := range so.Events {
		reg[name] = pythia.ID(i)
	}
	return reg
}

func TestOverloadRefusesNewSessionsNeverStallsExisting(t *testing.T) {
	dir := t.TempDir()
	names := synthTrace(t, dir, "synth", 256)
	_, addr := startServer(t, Config{TraceDir: dir, MaxSessions: 2})

	c := dialRaw(t, addr)
	reg := regFor(t, c, "synth")                                // session 1 of 2
	sid := c.openSession("synth", 0, wire.FlagStartAtBeginning) // session 2 of 2

	// Over budget: refusal is an Error frame on a still-usable connection.
	c.send(wire.TOpenSession, wire.AppendOpenSession(nil, wire.OpenSession{TID: 1, Tenant: "synth"}))
	c.expectError(wire.CodeSessionLimit)

	// The existing session keeps answering after the refusal.
	c.send(wire.TSubmitBatch, wire.AppendSubmitBatch(nil, sid, []int32{int32(reg[names[0]])}))
	c.send(wire.TPredictAt, wire.AppendPredictAt(nil, sid, 1))
	typ, payload := c.recv()
	if typ != wire.TPrediction {
		t.Fatalf("after refusal: expected Prediction, got %s", typ)
	}
	if _, ok, err := wire.ParsePrediction(payload); err != nil || !ok {
		t.Fatalf("after refusal: prediction ok=%v err=%v", ok, err)
	}

	// Closing a session frees budget for a new one.
	c.ask(wire.TCloseSession, &wire.SessionRef{Session: sid}, &wire.SessionRef{})
	c.openSession("synth", 1, 0)
}

func TestConnLimitRefusesAtAccept(t *testing.T) {
	dir := t.TempDir()
	synthTrace(t, dir, "synth", 64)
	_, addr := startServer(t, Config{TraceDir: dir, MaxConns: 1})

	first, err := client.Dial(addr, client.Config{})
	if err != nil {
		t.Fatalf("first dial: %v", err)
	}
	defer func() {
		if err := first.Close(); err != nil {
			t.Errorf("closing first client: %v", err)
		}
	}()
	if _, err := first.Oracle("synth"); err != nil {
		t.Fatalf("first oracle: %v", err)
	}

	// The second connection is refused with CodeConnLimit before the
	// handshake, and the first keeps working.
	_, err = client.Dial(addr, client.Config{DialTimeout: 2 * time.Second})
	var re *client.RemoteError
	if !errors.As(err, &re) || re.Code != wire.CodeConnLimit {
		t.Fatalf("second dial err = %v, want RemoteError CodeConnLimit", err)
	}
	if err := first.Err(); err != nil {
		t.Fatalf("first connection broke: %v", err)
	}
}

func TestUnknownTenant(t *testing.T) {
	dir := t.TempDir()
	synthTrace(t, dir, "synth", 64)
	_, addr := startServer(t, Config{TraceDir: dir})

	c, err := client.Dial(addr, client.Config{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer func() {
		if err := c.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	for _, tenant := range []string{"nope", "../synth", "a/b", ".hidden", ""} {
		_, err := c.Oracle(tenant)
		var re *client.RemoteError
		if !errors.As(err, &re) || re.Code != wire.CodeUnknownTenant {
			t.Fatalf("Oracle(%q) err = %v, want RemoteError CodeUnknownTenant", tenant, err)
		}
	}
	// The connection survives the refusals.
	if _, err := c.Oracle("synth"); err != nil {
		t.Fatalf("Oracle(synth) after refusals: %v", err)
	}
}

// TestHealthSurfacesQuarantine replays a stream the trace has never seen;
// the divergence watchdog quarantines the thread server-side, and the
// protocol Health frame must surface it instead of hiding it.
func TestHealthSurfacesQuarantine(t *testing.T) {
	dir := t.TempDir()
	synthTrace(t, dir, "synth", 512)
	_, addr := startServer(t, Config{TraceDir: dir})

	o, err := client.Connect(addr, "synth", client.Config{})
	if err != nil {
		t.Fatalf("connect: %v", err)
	}
	defer func() {
		if err := o.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	if h := o.Health(); h.State != pythia.Healthy {
		t.Fatalf("fresh oracle health = %s (%s), want healthy", h.State, h.Cause)
	}

	th := o.Thread(0)
	th.StartAtBeginning()
	// Events the reference trace does not contain: tracking collapses and
	// the watchdog must pull the thread's predictions.
	for i := 0; i < 512; i++ {
		th.Submit(o.Intern(fmt.Sprintf("alien:%d", i%7)))
	}
	h := o.Health()
	if h.State != pythia.Quarantined {
		t.Fatalf("health after divergence = %s (%s), want quarantined", h.State, h.Cause)
	}
	if h.QuarantinedThreads != 1 {
		t.Fatalf("QuarantinedThreads = %d, want 1", h.QuarantinedThreads)
	}
	if _, ok := th.PredictAt(1); ok {
		t.Fatal("quarantined thread still answered a prediction")
	}
}

func TestServerWideHealth(t *testing.T) {
	dir := t.TempDir()
	synthTrace(t, dir, "synth", 64)
	_, addr := startServer(t, Config{TraceDir: dir})

	c := dialRaw(t, addr)
	regFor(t, c, "synth") // load the tenant

	var hi wire.HealthInfo
	c.ask(wire.THealth, &wire.TenantRef{}, &hi)
	if hi.State != wire.StateHealthy || hi.Oracles != 1 {
		t.Fatalf("server health = %+v, want healthy with 1 oracle", hi)
	}

	// Health of a tenant nobody loaded is a refusal, not a stall.
	c.sendMsg(wire.THealth, &wire.TenantRef{Tenant: "unloaded"})
	c.expectError(wire.CodeUnknownTenant)
}

func TestTenantRefcounting(t *testing.T) {
	dir := t.TempDir()
	synthTrace(t, dir, "synth", 64)
	srv, addr := startServer(t, Config{TraceDir: dir})

	o, err := client.Connect(addr, "synth", client.Config{})
	if err != nil {
		t.Fatalf("connect: %v", err)
	}
	if _, ok := srv.st.healthOf("synth"); !ok {
		t.Fatal("tenant not loaded while a connection pins it")
	}
	if err := o.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// The connection goroutine releases the tenant asynchronously after
	// the socket closes.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, ok := srv.st.healthOf("synth"); !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("tenant still loaded after last reference closed")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestProtocolFatalErrors(t *testing.T) {
	dir := t.TempDir()
	synthTrace(t, dir, "synth", 64)
	_, addr := startServer(t, Config{TraceDir: dir})

	t.Run("bad version", func(t *testing.T) {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer func() {
			if err := nc.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
				t.Logf("close: %v", err)
			}
		}()
		bw := bufio.NewWriter(nc)
		hello := wire.AppendHello(nil, 0)
		hello[5] ^= 0xff // skew the low version byte (the last byte is flags)
		if err := wire.WriteFrame(bw, wire.THello, hello); err != nil {
			t.Fatalf("write: %v", err)
		}
		if err := bw.Flush(); err != nil {
			t.Fatalf("flush: %v", err)
		}
		br := bufio.NewReader(nc)
		var buf []byte
		typ, payload, err := wire.ReadFrame(br, &buf)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if typ != wire.TError {
			t.Fatalf("expected Error, got %s", typ)
		}
		var re wire.RemoteError
		if perr := wire.Decode(typ, payload, &re); perr != nil || re.Code != wire.CodeBadVersion {
			t.Fatalf("code = %v (parse err %v), want CodeBadVersion", re.Code, perr)
		}
	})

	t.Run("unknown session is fatal", func(t *testing.T) {
		c := dialRaw(t, addr)
		c.send(wire.TPredictAt, wire.AppendPredictAt(nil, 99, 1))
		c.expectError(wire.CodeUnknownSession)
		// The server closes the connection after a fatal error.
		if _, _, err := wire.ReadFrame(c.BR, &c.In); err == nil {
			t.Fatal("connection still open after fatal protocol error")
		}
	})

	t.Run("duplicate open retires the stale session", func(t *testing.T) {
		// Last open wins: a client that lost an OpenSession response reopens
		// the same (tenant, thread) after a resume. The server must hand out
		// a fresh session and retire the orphaned one rather than refuse —
		// a refusal would wedge the client permanently (see openSession).
		c := dialRaw(t, addr)
		old := c.openSession("synth", 0, 0)
		fresh := c.openSession("synth", 0, 0)
		if fresh == old {
			t.Fatalf("reopen returned the stale session id %d", old)
		}
		// The connection keeps serving and the fresh session answers.
		c.send(wire.TSubmitBatch, wire.AppendSubmitBatch(nil, fresh, []int32{0}))
		c.send(wire.TPredictAt, wire.AppendPredictAt(nil, fresh, 1))
		typ, _ := c.recv()
		if typ != wire.TPrediction {
			t.Fatalf("fresh session: expected Prediction, got %s", typ)
		}
		// The retired id is gone; using it is the usual fatal unknown-session.
		c.send(wire.TPredictAt, wire.AppendPredictAt(nil, old, 1))
		c.expectError(wire.CodeUnknownSession)
	})
}

// TestPredictSequenceCountClamped: the count in a PredictSequence frame is
// attacker-controlled; the server must clamp it to what one response frame
// can carry instead of letting an 8-byte request demand a multi-GiB
// prediction buffer. Negative counts must answer an empty sequence, not
// panic the oracle.
func TestPredictSequenceCountClamped(t *testing.T) {
	dir := t.TempDir()
	synthTrace(t, dir, "synth", 64)
	_, addr := startServer(t, Config{TraceDir: dir})

	c := dialRaw(t, addr)
	sid := c.openSession("synth", 0, wire.FlagStartAtBeginning)

	for _, n := range []int{math.MaxInt32, wire.MaxPredictions + 1, -1, math.MinInt32} {
		c.send(wire.TPredictSequence, wire.Append(nil, &wire.SessionArg{Session: sid, Arg: uint32(n)}))
		typ, payload := c.recv()
		if typ != wire.TPredictions {
			t.Fatalf("n=%d: expected Predictions, got %s", n, typ)
		}
		var m wire.Predictions
		if err := wire.Decode(wire.TPredictions, payload, &m); err != nil {
			t.Fatalf("n=%d: parsing Predictions: %v", n, err)
		}
		preds := m.Preds
		if len(preds) > wire.MaxPredictions {
			t.Fatalf("n=%d: %d predictions, past the frame bound", n, len(preds))
		}
		if n < 0 && len(preds) != 0 {
			t.Fatalf("n=%d: %d predictions, want none", n, len(preds))
		}
	}
	// The connection is still usable afterwards.
	c.send(wire.TPredictAt, wire.AppendPredictAt(nil, sid, 1))
	if typ, _ := c.recv(); typ != wire.TPrediction {
		t.Fatalf("after clamped requests: expected Prediction, got %s", typ)
	}
}

// TestPredictSequenceMaxPredictionsBoundary pins the exact frame-capacity
// edge on both paths: a count of exactly wire.MaxPredictions is legal and
// answered, one past it is clamped — never an error and never a closed
// connection. Together with the untrusted-size analyzer (which fails the
// build if the server clamp is deleted) this is the regression fence for
// the PR 5 MaxPredictions incident.
func TestPredictSequenceMaxPredictionsBoundary(t *testing.T) {
	dir := t.TempDir()
	synthTrace(t, dir, "synth", 64)
	_, addr := startServer(t, Config{TraceDir: dir})

	counts := []int{wire.MaxPredictions, wire.MaxPredictions + 1}

	t.Run("server wire path", func(t *testing.T) {
		c := dialRaw(t, addr)
		sid := c.openSession("synth", 0, wire.FlagStartAtBeginning)
		for _, n := range counts {
			c.send(wire.TPredictSequence, wire.Append(nil, &wire.SessionArg{Session: sid, Arg: uint32(n)}))
			typ, payload := c.recv()
			if typ != wire.TPredictions {
				t.Fatalf("n=%d: expected Predictions, got %s (clamp, not error)", n, typ)
			}
			var m wire.Predictions
			if err := wire.Decode(wire.TPredictions, payload, &m); err != nil {
				t.Fatalf("n=%d: parsing Predictions: %v", n, err)
			}
			preds := m.Preds
			if len(preds) == 0 {
				t.Fatalf("n=%d: empty sequence on an open session", n)
			}
			if len(preds) > wire.MaxPredictions {
				t.Fatalf("n=%d: %d predictions, past the frame bound", n, len(preds))
			}
		}
	})

	t.Run("client library path", func(t *testing.T) {
		o, err := client.Connect(addr, "synth", client.Config{})
		if err != nil {
			t.Fatalf("connect: %v", err)
		}
		defer func() {
			if err := o.Close(); err != nil {
				t.Errorf("close: %v", err)
			}
		}()
		th := o.Thread(0)
		th.StartAtBeginning()
		for _, n := range counts {
			preds := th.PredictSequence(n)
			if len(preds) == 0 {
				t.Fatalf("n=%d: no predictions (the client must clamp, not fail)", n)
			}
			if len(preds) > wire.MaxPredictions {
				t.Fatalf("n=%d: %d predictions, past the frame bound", n, len(preds))
			}
		}
		if h := o.Health(); h.State != pythia.Healthy {
			t.Fatalf("health = %+v after boundary requests, want Healthy", h)
		}
	})
}

// TestConcurrentSubmitAndHealth: the remote oracle advertises the same
// concurrency contract as the in-process one — Health from a monitoring
// goroutine while another goroutine submits. Run with -race this guards
// the client's submit buffer handoff.
func TestConcurrentSubmitAndHealth(t *testing.T) {
	dir := t.TempDir()
	names := synthTrace(t, dir, "synth", 256)
	_, addr := startServer(t, Config{TraceDir: dir})

	o, err := client.Connect(addr, "synth", client.Config{})
	if err != nil {
		t.Fatalf("connect: %v", err)
	}
	defer func() {
		if err := o.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	th := o.Thread(0)
	th.StartAtBeginning()

	done := make(chan struct{})
	go func() {
		defer close(done)
		// Stay within the reference trace (256 reps × 4 events) so the
		// divergence watchdog has no reason to fire.
		for i := 0; i < 1000; i++ {
			th.Submit(o.Intern(names[i%len(names)]))
		}
	}()
	for i := 0; i < 50; i++ {
		if h := o.Health(); h.State != pythia.Healthy {
			t.Fatalf("health mid-run = %s (%s), want healthy", h.State, h.Cause)
		}
	}
	<-done
	if _, ok := th.PredictAt(1); !ok {
		t.Fatal("prediction failed after concurrent submit/health run")
	}
}

func TestSanitizeTenant(t *testing.T) {
	good := []string{"bt", "BT.small", "a-b_c.9"}
	for _, name := range good {
		if err := sanitizeTenant(name); err != nil {
			t.Errorf("sanitizeTenant(%q) = %v, want nil", name, err)
		}
	}
	bad := []string{"", ".", "..", "a/b", `a\b`, "../x", ".hidden", "a b", "a\x00b"}
	for _, name := range bad {
		if err := sanitizeTenant(name); err == nil {
			t.Errorf("sanitizeTenant(%q) = nil, want error", name)
		}
	}
}
