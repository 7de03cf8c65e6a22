// Package server is pythiad's daemon core: a TCP server that multiplexes
// remote client sessions onto in-process pythia oracles.
//
// Each accepted connection is owned by one goroutine, which owns every
// session opened on it — preserving the library's single-submitter Thread
// contract without per-event locking. Tenants (named traces from the trace
// directory) are loaded lazily into a refcounted store and shared
// read-only across connections; each connection builds its own predicting
// oracle per tenant, so one client's divergence or contained panic degrades
// only that client's predictions while Health aggregation still surfaces it.
//
// The server fails open under pressure: past MaxConns new connections are
// refused with an Error frame, past MaxSessions new sessions are refused
// with an Error frame, and draining refuses new sessions — existing
// sessions keep being answered in every case. Shutdown reuses the
// checkpointer's drain discipline: stop intake, give in-flight work a
// bounded window, then force the stragglers.
package server

import (
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/wire"
	"repro/pythia"
)

// Defaults for Config zero values.
const (
	DefaultMaxConns     = 256
	DefaultMaxSessions  = 4096
	DefaultDrainTimeout = 5 * time.Second
	DefaultResumeWindow = 15 * time.Second
)

// maxParked caps concurrently parked connections awaiting resume; beyond it
// a dropped connection releases immediately.
const maxParked = 64

// Config configures a Server. The zero value serves the current directory
// with default limits.
type Config struct {
	// TraceDir is the directory of <tenant>.pythia trace files.
	TraceDir string
	// Learn, when non-nil, turns every per-connection oracle into an
	// online-learning one under the given lifecycle policy: the loaded trace
	// keeps serving while the client's live stream is shadow-recorded, with
	// scored promotion and automatic rollback. The policy's journal Dir is
	// ignored — per-connection oracles would collide on a shared journal, so
	// server-side generations are kept in memory.
	Learn *pythia.LearnPolicy
	// MaxConns caps concurrent connections; excess connects are refused
	// with CodeConnLimit. 0 means DefaultMaxConns, negative means no cap.
	MaxConns int
	// MaxSessions caps concurrent open sessions server-wide; excess opens
	// are refused with CodeSessionLimit while the connection stays usable.
	// 0 means DefaultMaxSessions, negative means no cap.
	MaxSessions int
	// DrainTimeout bounds Shutdown: connections still busy after the
	// window are force-closed. 0 means DefaultDrainTimeout.
	DrainTimeout time.Duration
	// ResumeWindow is how long a dropped connection's sessions stay parked
	// awaiting a TResume with the connection's token. 0 means
	// DefaultResumeWindow, negative disables session resume entirely.
	ResumeWindow time.Duration
	// Keepalive, when positive, reaps connections that show no traffic for
	// the given window. Traffic is any frame, or on the shared-memory tier
	// the events the pump consumes from a ring, so a client that only
	// submits stays alive (the pump re-arms at most once per half window:
	// ring traffic must come at least that often). A reaped connection's
	// sessions are parked; the client reconnects, resumes and replays.
	Keepalive time.Duration
	// TenantEventsPerSec, when positive, gives every tenant a token-bucket
	// event budget refilling at this rate. It is the one admission
	// mechanism past the server-wide caps. Every event a session applies
	// charges it — socket batches, shm ring events and resume replays
	// alike — and is never refused (submission is one-way); predictions
	// and session opens are gated on it and refused with CodeRetryLater
	// plus a retry-after hint once a tenant has overdrafted, so one hot
	// tenant cannot starve a daemon. A PredictSequence costs its horizon.
	// 0 disables per-tenant budgets.
	TenantEventsPerSec int64
	// TenantBurst caps a tenant's budget balance. 0 means one second of
	// slack (TenantEventsPerSec).
	TenantBurst int64
	// Logf, when set, receives connection-lifecycle diagnostics. It must
	// be safe for concurrent use (log.Printf is).
	Logf func(format string, args ...any)
}

// Server is a pythiad daemon core. Create with New, run with Serve,
// stop with Shutdown.
type Server struct {
	cfg Config
	st  *store

	mu    sync.Mutex
	lns   []net.Listener
	conns map[*conn]struct{}

	draining atomic.Bool
	drainAt  atomic.Int64 // the drain deadline in unix nanos, stored before draining flips
	sessions atomic.Int64 // open sessions, server-wide
	wg       sync.WaitGroup
	drainOne sync.Once

	parkMu sync.Mutex
	parked map[uint64]*parkedConn // resume token -> parked sessions

	// Cluster state (see cluster.go). clus is nil on a non-clustered
	// daemon; clusMu serializes epoch adoption, sweepMu serializes
	// migration/replication sweeps.
	clusMu  sync.Mutex
	clus    atomic.Pointer[clusterState]
	sweepMu sync.Mutex
}

// New returns a server over cfg.TraceDir. It does not listen yet.
func New(cfg Config) *Server {
	if cfg.MaxConns == 0 {
		cfg.MaxConns = DefaultMaxConns
	}
	if cfg.MaxSessions == 0 {
		cfg.MaxSessions = DefaultMaxSessions
	}
	if cfg.DrainTimeout == 0 {
		cfg.DrainTimeout = DefaultDrainTimeout
	}
	if cfg.ResumeWindow == 0 {
		cfg.ResumeWindow = DefaultResumeWindow
	}
	return &Server{
		cfg:    cfg,
		st:     newStore(cfg.TraceDir),
		conns:  make(map[*conn]struct{}),
		parked: make(map[uint64]*parkedConn),
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Serve accepts connections on ln until Shutdown. It returns nil when the
// listener was closed by Shutdown, the accept error otherwise. A server may
// Serve several listeners concurrently (one goroutine each) — pythiad binds
// a TCP and a unix listener onto the same Server this way.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.lns = append(s.lns, ln)
	s.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil
			}
			return err
		}
		s.accept(nc)
	}
}

// accept admits or refuses one fresh connection under the connection cap.
// Admission — the drain check, conns registration, and wg.Add — happens
// atomically under s.mu, the same mutex drain holds while it flips the
// flag and snapshots s.conns. Either this connection is admitted before
// the snapshot (so drain deadlines and wg.Wait cover it), or it observes
// draining and is refused; it can never slip between wg.Wait and the
// force-close sweep.
func (s *Server) accept(nc net.Conn) {
	c := newConn(s, nc)
	s.mu.Lock()
	draining := s.draining.Load()
	over := s.cfg.MaxConns > 0 && len(s.conns) >= s.cfg.MaxConns
	admitted := !draining && !over
	if admitted {
		s.conns[c] = struct{}{}
		s.wg.Add(1)
	}
	s.mu.Unlock()
	if !admitted {
		// Refuse, never stall: one Error frame, then close. The handshake
		// is skipped on purpose — a refused client must not wait for it.
		code, msg := wire.CodeConnLimit, "connection limit reached"
		if draining {
			code, msg = wire.CodeDraining, "server draining"
		}
		c.refuse(code, msg)
		return
	}
	go func() {
		defer s.wg.Done()
		c.serve()
		s.dropConn(c)
	}()
}

func (s *Server) dropConn(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// Shutdown drains the server: the listener closes, new sessions are
// refused with CodeDraining, requests already in flight (or arriving
// before the drain deadline) are still answered, and connections that
// outlive the drain window are force-closed. It returns once every
// connection goroutine has exited.
func (s *Server) Shutdown() error {
	var err error
	s.drainOne.Do(func() { err = s.drain() })
	return err
}

func (s *Server) drain() error {
	s.mu.Lock()
	// The flag flips under s.mu so it serializes with accept's admission:
	// every connection already in s.conns gets a drain deadline below, and
	// no new one can be admitted after this snapshot. The deadline is
	// stored first, so a keepalive re-arm racing the flip can restore it.
	deadline := time.Now().Add(s.cfg.DrainTimeout)
	s.drainAt.Store(deadline.UnixNano())
	s.draining.Store(true)
	lns := s.lns
	for c := range s.conns {
		// An expired read deadline unblocks the connection goroutine's
		// blocking read; frames that arrive before it are still served.
		if derr := c.NC.SetReadDeadline(deadline); derr != nil {
			s.logf("pythiad: drain deadline on %s: %v", c.NC.RemoteAddr(), derr)
		}
	}
	s.mu.Unlock()
	for _, ln := range lns {
		if cerr := ln.Close(); cerr != nil {
			s.logf("pythiad: closing listener %s: %v", ln.Addr(), cerr)
		}
	}
	// Parked sessions will never be resumed on a draining server: release
	// them now so their tenants (and the session budget) drain too.
	s.sweepParked()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	forced := 0
	select {
	case <-done:
	case <-time.After(time.Until(deadline) + time.Second):
		s.mu.Lock()
		for c := range s.conns {
			forced++
			if cerr := c.NC.Close(); cerr != nil {
				s.logf("pythiad: force-closing %s: %v", c.NC.RemoteAddr(), cerr)
			}
		}
		s.mu.Unlock()
		<-done
	}
	if forced > 0 {
		return fmt.Errorf("server: drain timeout: force-closed %d connections", forced)
	}
	return nil
}

// Sessions reports the number of currently open sessions (for tests and
// operator diagnostics).
func (s *Server) Sessions() int64 { return s.sessions.Load() }

// protoErr is a protocol-level failure: an Error frame worth of cause plus
// whether the connection can continue afterwards. Request/response pairing
// survives a non-fatal protoErr because the Error frame IS the response to
// the failing request; errors on one-way frames are always fatal.
type protoErr struct {
	code    wire.Code
	msg     string
	fatal   bool
	retryMs uint32 // retry-after hint, encoded when nonzero (load shedding)
}

func (e *protoErr) Error() string { return fmt.Sprintf("%s: %s", e.code, e.msg) }

func badFrame(msg string) *protoErr {
	return &protoErr{code: wire.CodeBadFrame, msg: msg, fatal: true}
}

// sessKey identifies one (tenant, thread) session on a connection.
type sessKey struct {
	tenant string
	tid    int32
}

// A session id names a slot of the connection's session table and one
// tenancy of it: the low slotBits index the table, the bits above count how
// often the slot has been retired. Retired slots are reused, so the table
// stays as large as the most sessions the connection ever had open at once;
// an id that outlived its session still finds its slot, sees a newer
// tenancy, and is refused like one that never existed.
const (
	slotBits = 16
	slotMask = 1<<slotBits - 1
)

// session is one slot of the session table. sink is nil for meta sessions
// (tid < 0), which exist to pin a tenant and fetch its event table.
type session struct {
	id   uint32 // the slot's current (or, once retired, next) session id
	key  sessKey
	sink *sink
	open bool
}

// sink is the one way events enter a session: socket batches, drained shm
// ring chunks and resume replays all go through apply, which feeds the
// oracle thread, counts the events (the applied counter resume dedup reads)
// and charges them to the tenant's event budget. A ring-bound session's
// ring shares its sink; the ring lock serializes the two writers. A session
// gets a fresh sink each time it opens, and a ring is unbound before its
// session's slot is retired.
type sink struct {
	th      *pythia.Thread
	applied uint64
	qos     *cluster.TokenBucket
}

// apply hands ids to the oracle as one SubmitBatch — one containment
// frame — advances the applied counter and charges the tenant budget.
// pythia:hotpath — per batch on every tier; must not allocate.
func (k *sink) apply(ids []pythia.ID) {
	k.th.SubmitBatch(ids)
	k.applied += uint64(len(ids))
	chargeEvents(k.qos, int64(len(ids)))
}

// connTenant is this connection's handle on one tenant: the shared store
// entry plus the connection-private predicting oracle built over it. qos
// caches the tenant's shared event budget (nil when budgets are off) so
// the hot path never touches the store.
type connTenant struct {
	t      *tenant
	oracle *pythia.Oracle
	qos    *cluster.TokenBucket
}

// sessTable is the part of a connection that outlives it when it parks: the
// session slots, which of them are free, and the tenants they hold open.
type sessTable struct {
	sessions []session
	free     []uint32 // indexes of retired slots, reused before the table grows
	byKey    map[sessKey]uint32
	tenants  map[string]*connTenant
}

// conn serves one client connection. All fields are owned by the single
// connection goroutine; the server touches only NC (deadlines, force-close).
type conn struct {
	srv *Server
	*wire.Conn
	sessTable

	// Shared-memory transport state (nil until ShmSetup succeeds). ringOf
	// maps a session id to its bound ring index; both are owned by the conn
	// goroutine, the rings themselves are shared with the pump under
	// per-ring mutexes (see shm.go).
	shm    *connShm
	ringOf map[uint32]int

	// ids is the SubmitBatch decode scratch (scratchChunk ids, allocated at
	// the first batch).
	ids []pythia.ID

	// resumeToken is the token granted at Hello time (0 when the client did
	// not ask or resume is disabled). While nonzero, teardown parks the
	// connection's sessions instead of releasing them (see park.go).
	resumeToken uint64
}

func newConn(s *Server, nc net.Conn) *conn {
	return &conn{
		srv:  s,
		Conn: wire.NewConn(nc),
		sessTable: sessTable{
			byKey:   make(map[sessKey]uint32),
			tenants: make(map[string]*connTenant),
		},
	}
}

// refuse sends one Error frame to an unadmitted connection and closes it.
func (c *conn) refuse(code wire.Code, msg string) {
	if err := c.NC.SetWriteDeadline(time.Now().Add(2 * time.Second)); err == nil {
		c.writeError(&protoErr{code: code, msg: msg})
	}
	if err := c.NC.Close(); err != nil {
		c.srv.logf("pythiad: closing refused %s: %v", c.NC.RemoteAddr(), err)
	}
}

// serve runs the connection to completion: handshake, then frames until
// EOF, a fatal protocol error, the keepalive window, or the drain deadline.
func (c *conn) serve() {
	defer c.teardown()
	c.armKeepalive()
	if err := c.handshake(); err != nil {
		c.finishWith(err)
		return
	}
	for {
		t, payload, err := wire.ReadFrame(c.BR, &c.In)
		if err != nil {
			c.finishWith(nil) // EOF, deadline, or torn frame: nothing to answer
			return
		}
		if err := c.handleFrame(t, payload); err != nil {
			var pe *protoErr
			if errors.As(err, &pe) {
				c.writeError(pe)
				if !pe.fatal {
					continue
				}
			}
			c.finishWith(nil)
			return
		}
		// Write batching: flush only when no further request is already
		// buffered, so a pipelined burst gets one flush, not N. The idle
		// point is also where the keepalive window restarts.
		if c.BR.Buffered() == 0 {
			if err := c.BW.Flush(); err != nil {
				c.finishWith(nil)
				return
			}
			c.armKeepalive()
		}
	}
}

// armKeepalive restarts the read-side keepalive window. The connection
// goroutine calls it after each flushed request, the shm pump after it
// consumed ring events. Keepalive never extends a drain: a window set
// before drain flips the flag is overwritten by drain's own sweep, and one
// that raced the flip is put back to the stored drain deadline here.
func (c *conn) armKeepalive() {
	if c.srv.cfg.Keepalive <= 0 || c.srv.draining.Load() {
		return
	}
	c.setReadDeadline(time.Now().Add(c.srv.cfg.Keepalive))
	if c.srv.draining.Load() {
		c.setReadDeadline(time.Unix(0, c.srv.drainAt.Load()))
	}
}

// setReadDeadline moves the read deadline. A connection already closed —
// the pump re-arming while teardown runs — is not worth a log line.
func (c *conn) setReadDeadline(t time.Time) {
	if err := c.NC.SetReadDeadline(t); err != nil && !errors.Is(err, net.ErrClosed) {
		c.srv.logf("pythiad: read deadline on %s: %v", c.NC.RemoteAddr(), err)
	}
}

// handshake requires the first frame to be a version-matched Hello. A
// client asking for resume capability gets a fresh token in the HelloOK —
// the token it may present over a future connection to adopt the sessions
// this connection leaves behind.
func (c *conn) handshake() error {
	t, payload, err := wire.ReadFrame(c.BR, &c.In)
	if err != nil {
		return nil // connected and left: not an event worth a frame
	}
	if t != wire.THello {
		return badFrame("expected Hello")
	}
	var hello wire.Hello
	if err := wire.Decode(t, payload, &hello); err != nil {
		return badFrame(err.Error())
	}
	if hello.Version != wire.Version {
		return &protoErr{
			code:  wire.CodeBadVersion,
			msg:   fmt.Sprintf("server speaks version %d, client sent %d", wire.Version, hello.Version),
			fatal: true,
		}
	}
	ok := wire.HelloOK{Version: wire.Version}
	window := c.srv.cfg.ResumeWindow
	if hello.Flags&wire.HelloFlagResume != 0 && window > 0 && !c.srv.draining.Load() {
		token, terr := newResumeToken()
		if terr != nil {
			c.srv.logf("pythiad: resume token for %s: %v", c.NC.RemoteAddr(), terr)
		} else {
			c.resumeToken = token
			ok.Token, ok.WindowMs = token, uint32(window/time.Millisecond)
		}
	}
	if err := c.Send(wire.THelloOK, &ok); err != nil {
		return err
	}
	return c.BW.Flush()
}

// writeError answers (or terminates) a request with an Error frame; the
// retry-after hint rides along when the refusal carries one.
func (c *conn) writeError(pe *protoErr) {
	if err := c.Send(wire.TError, &wire.RemoteError{Code: pe.code, Msg: pe.msg, RetryAfterMs: pe.retryMs}); err != nil {
		return
	}
	if err := c.BW.Flush(); err != nil {
		c.srv.logf("pythiad: error frame to %s: %v", c.NC.RemoteAddr(), err)
	}
}

// finishWith flushes and closes after the read loop ends.
func (c *conn) finishWith(err error) {
	if err != nil {
		var pe *protoErr
		if errors.As(err, &pe) {
			c.writeError(pe)
		}
	}
	if ferr := c.BW.Flush(); ferr != nil {
		c.srv.logf("pythiad: final flush to %s: %v", c.NC.RemoteAddr(), ferr)
	}
	if cerr := c.NC.Close(); cerr != nil && !errors.Is(cerr, net.ErrClosed) {
		c.srv.logf("pythiad: closing %s: %v", c.NC.RemoteAddr(), cerr)
	}
}

// teardown returns every resource the connection holds: open-session
// budget, oracle registrations, tenant references, and the shm pump and
// segment mapping when the connection negotiated shared memory. The shm
// teardown runs first — its final ring drain makes the applied counters
// exact — then a connection holding a resume token parks its sessions for
// the resume window instead of releasing them.
func (c *conn) teardown() {
	c.shmTeardown()
	if c.resumeToken != 0 && c.srv.tryPark(c) {
		return
	}
	c.release(c.srv)
}

// handleFrame dispatches one request frame: the three hot-path frames
// directly, everything else through the handler table.
// pythia:hotpath — per-request on the serving path; the SubmitBatch and
// PredictAt arms must not allocate.
func (c *conn) handleFrame(t wire.Type, payload []byte) error {
	switch t {
	case wire.TSubmitBatch:
		sid, batch, err := wire.ParseSubmitBatch(payload)
		if err != nil {
			return badFrame(err.Error())
		}
		k, release, perr := c.enter(sid, false)
		if perr != nil {
			return perr
		}
		// Decode into the connection's scratch, a chunk at a time, and
		// apply each chunk as one batch.
		if c.ids == nil {
			c.ids = make([]pythia.ID, scratchChunk)
		}
		for lo, n := 0, batch.Len(); lo < n; lo += scratchChunk {
			ids := c.ids[:min(n-lo, scratchChunk)]
			for i := range ids {
				ids[i] = pythia.ID(batch.At(lo + i))
			}
			k.apply(ids)
		}
		release()
		return nil
	case wire.TPredictAt:
		sid, distance, err := wire.ParsePredictAt(payload)
		if err != nil {
			return badFrame(err.Error())
		}
		k, release, perr := c.enter(sid, true)
		if perr != nil {
			return perr
		}
		pr, ok := k.th.PredictAt(distance)
		release()
		c.Out = wire.AppendPrediction(c.Out[:0], pr, ok)
		return wire.WriteFrame(c.BW, wire.TPrediction, c.Out)
	}
	if serve := handlers[t]; serve != nil {
		return serve(c, t, payload)
	}
	return badFrameType(t)
}

// handler serves one cold-path request frame.
type handler func(c *conn, t wire.Type, payload []byte) error

// handlers is the cold-path dispatch table, indexed by frame type. A frame
// with no row (a reply type, a second Hello, an unknown number) is a fatal
// CodeBadFrame.
var handlers = [math.MaxUint8 + 1]handler{
	wire.TOpenSession:     on((*conn).openSession),
	wire.TPredictSequence: on((*conn).predictSequence),
	wire.THealth:          on((*conn).health),
	wire.TCloseSession:    on((*conn).closeSession),
	wire.TShmSetup:        on((*conn).shmSetup),
	wire.TShmBind:         on((*conn).shmBind),
	wire.TSubscribe:       on((*conn).shmSubscribe),
	wire.TResume:          on((*conn).resume),
	wire.TReplay:          on((*conn).replay),
	wire.TDetach:          on((*conn).detach),
	wire.TModelInfo:       on((*conn).modelInfo),
	wire.TPromote:         on((*conn).promote),
	wire.TRollback:        on((*conn).rollback),
	wire.TShardMap:        on((*conn).shardMap),
	wire.TFetchModel:      on((*conn).fetchModel),
	wire.TOfferModel:      on((*conn).offerModel),
}

// on makes a handler-table row from a typed request method. The payload is
// decoded into the message value wire's frame table holds for the frame
// type, and whatever the method returns goes out as the frame type the same
// table names as the answer — so neither the Go type of a request nor the
// type of its reply is stated anywhere but there. A nil reply sends nothing
// (one-way frames).
func on[M wire.Message](serve func(*conn, M) (wire.Message, error)) handler {
	return func(c *conn, t wire.Type, payload []byte) error {
		m, ok := wire.New(t).(M)
		if !ok {
			return &protoErr{code: wire.CodeInternal, msg: "handler table and frame table disagree on " + t.String(), fatal: true}
		}
		if err := wire.Decode(t, payload, m); err != nil {
			return badFrame(err.Error())
		}
		reply, err := serve(c, m)
		if err != nil || reply == nil {
			return err
		}
		return c.Send(t.Reply(), reply)
	}
}

// badFrameType reports an unexpected frame type. Split from handleFrame so
// the message formatting stays off the annotated hot path — it runs only on
// a fatal protocol error, after which the connection closes.
func badFrameType(t wire.Type) *protoErr {
	return badFrame("unexpected frame type " + t.String())
}

// sessionOf resolves a session id to its open slot, nil when the id names
// no session open on this connection — never opened, or closed since (the
// slot's id moved on when it was retired).
// pythia:hotpath — per-request on the serving path.
func (c *conn) sessionOf(sid uint32) *session {
	idx := int(sid & slotMask)
	if idx >= len(c.sessions) || !c.sessions[idx].open || c.sessions[idx].id != sid {
		return nil
	}
	return &c.sessions[idx]
}

// sinkOf resolves a session id to the sink of an open thread session.
// Failures are fatal: they corrupt request/response pairing (the id may
// belong to a one-way SubmitBatch), so the connection cannot safely
// continue.
// pythia:hotpath — per-request on the serving path.
func (c *conn) sinkOf(sid uint32) (*sink, *protoErr) {
	s := c.sessionOf(sid)
	if s == nil {
		return nil, errUnknownSession
	}
	if s.sink == nil {
		return nil, errMetaSession
	}
	return s.sink, nil
}

var (
	errUnknownSession = &protoErr{code: wire.CodeUnknownSession, msg: "no such session on this connection", fatal: true}
	errMetaSession    = &protoErr{code: wire.CodeBadFrame, msg: "submit/predict on a meta session", fatal: true}
)

// enter is how a socket op reaches a session: it resolves sid to the
// session's sink and orders the op after everything the session's bound
// ring holds — it drains the ring under the ring lock, which the returned
// release drops (a no-op for an unbound session). A query (gate) is then
// admitted against the tenant's event budget, after the drain, so the
// budget has been charged for every event the answer reflects; a refusal
// releases the ring before it returns.
// pythia:hotpath — per-request on the serving path.
func (c *conn) enter(sid uint32, gate bool) (*sink, func(), *protoErr) {
	k, perr := c.sinkOf(sid)
	if perr != nil {
		return nil, nil, perr
	}
	release := releaseNop
	if c.shm != nil {
		if idx, bound := c.ringOf[sid]; bound {
			r := &c.shm.rings[idx]
			r.mu.Lock()
			if _, err := drainRingLocked(r); err != nil {
				r.mu.Unlock()
				return nil, nil, &protoErr{code: wire.CodeBadFrame, msg: err.Error(), fatal: true}
			}
			release = r.mu.Unlock
		}
	}
	if gate {
		if perr := gateTenant(k.qos); perr != nil {
			release()
			return nil, nil, perr
		}
	}
	return k, release, nil
}

var releaseNop = func() {}

// predictSequence answers a PredictSequence request.
func (c *conn) predictSequence(m *wire.SessionArg) (wire.Message, error) {
	k, release, perr := c.enter(m.Session, true)
	if perr != nil {
		return nil, perr
	}
	// n comes off the wire: clamp it to what one response frame can
	// carry, so an 8-byte request cannot demand a multi-GiB prediction
	// buffer (the core allocates the full horizon up front). Shorter-
	// than-asked results are already in the method's contract — the
	// in-process oracle truncates at the end of the reference trace.
	n := int(int32(m.Arg))
	if n < 0 {
		n = 0
	} else if n > wire.MaxPredictions {
		n = wire.MaxPredictions
	}
	// A sequence costs its clamped horizon: the gate spent one token, the
	// rest is charged behind it. Speculative multi-step queries, the
	// lowest-value work, are thus what drains a tenant's budget first.
	if n > 1 {
		chargeEvents(k.qos, int64(n-1))
	}
	preds := k.th.PredictSequence(n)
	release()
	return &wire.Predictions{Preds: preds}, nil
}

// detach handles the one-way Detach: the client is closing for good, so its
// sessions must not be parked.
func (c *conn) detach(*wire.Empty) (wire.Message, error) {
	c.resumeToken = 0
	return nil, nil
}

// openSession admits one session under the drain flag and session budget,
// then binds it to a (tenant, thread) oracle.
func (c *conn) openSession(o *wire.OpenSession) (wire.Message, error) {
	key := sessKey{tenant: o.Tenant, tid: o.TID}
	if o.TID >= 0 {
		if old, dup := c.byKey[key]; dup {
			// Last open wins. A client restarting a thread (StartAtBeginning)
			// reopens it this way, in one round trip; a client whose
			// OpenSession (or CloseSession) response was lost to the network
			// resumes with a stale view in which this thread is unopened, and
			// refusing the reopen would wedge it permanently. The orphaned
			// slot can hold no unacknowledged client state — the client never
			// learned its id — so retiring it and letting the shadow replay
			// rebuild the stream converges. Retiring comes before every
			// admission check, so a refused reopen ends where a close and a
			// refused open end: the old session gone, its ring drained and
			// free to bind again.
			if perr := c.retireSession(c.sessionOf(old)); perr != nil {
				return nil, perr
			}
		}
	}
	if c.srv.draining.Load() {
		return nil, &protoErr{code: wire.CodeDraining, msg: "server draining; no new sessions"}
	}
	// Ownership is enforced at open time only: a clustered daemon refuses
	// tenants outside its assignment (non-fatal — the client re-fetches the
	// shard map and re-routes), while sessions already open stay put across
	// epoch changes.
	if perr := c.checkShard(o.Tenant); perr != nil {
		return nil, perr
	}
	if max := int64(c.srv.cfg.MaxSessions); max > 0 && c.srv.sessions.Load() >= max {
		return nil, &protoErr{code: wire.CodeSessionLimit, msg: "session limit reached; retry later"}
	}
	ct, perr := c.tenantOf(o.Tenant)
	if perr != nil {
		return nil, perr
	}
	// A tenant in event-budget overdraft cannot open new sessions — fanning
	// out is how a hot tenant would dodge its budget. Non-fatal with a
	// retry hint: the session stays unopened, the connection usable.
	if perr := gateTenant(ct.qos); perr != nil {
		return nil, perr
	}

	// Take a retired slot if there is one; grow the table otherwise.
	var idx uint32
	if n := len(c.free); n > 0 {
		idx, c.free = c.free[n-1], c.free[:n-1]
	} else if idx = uint32(len(c.sessions)); idx > slotMask {
		return nil, &protoErr{code: wire.CodeSessionLimit, msg: "this connection's session table is full"}
	} else {
		c.sessions = append(c.sessions, session{id: idx})
	}
	s := &c.sessions[idx]
	s.key, s.open = key, true
	so := &wire.SessionOpened{Session: s.id, State: stateToWire(ct.oracle.Health().State)}
	if o.TID >= 0 {
		s.sink = &sink{th: ct.oracle.Thread(o.TID), qos: ct.qos}
		so.HasPredictor = ct.t.ts.Trace(o.TID) != nil
		if o.Flags&wire.FlagStartAtBeginning != 0 {
			s.sink.th.StartAtBeginning()
		}
		c.byKey[key] = s.id
	}
	c.srv.sessions.Add(1)

	if o.Flags&wire.FlagWantEvents != 0 {
		so.Events = ct.t.ts.Events
		if so.Events == nil {
			so.Events = []string{}
		}
	}
	return so, nil
}

// tenantOf returns this connection's oracle for a tenant, acquiring the
// shared trace and building the oracle on first use.
func (c *conn) tenantOf(name string) (*connTenant, *protoErr) {
	if ct, ok := c.tenants[name]; ok {
		return ct, nil
	}
	t, err := c.srv.st.Acquire(name)
	if err != nil {
		if isNotExist(err) {
			return nil, &protoErr{code: wire.CodeUnknownTenant, msg: err.Error()}
		}
		return nil, &protoErr{code: wire.CodeInternal, msg: err.Error()}
	}
	var popts []pythia.PredictOption
	if lp := c.srv.cfg.Learn; lp != nil {
		pol := *lp
		pol.Dir = "" // per-connection oracles: in-memory generations only
		popts = append(popts, pythia.WithOnlineLearning(pol))
	}
	oracle, err := pythia.NewPredictOracle(t.ts, pythia.Config{}, popts...)
	if err != nil {
		c.srv.st.Release(t)
		return nil, &protoErr{code: wire.CodeInternal, msg: err.Error()}
	}
	t.register(oracle)
	ct := &connTenant{t: t, oracle: oracle, qos: c.srv.tenantBucket(t)}
	c.tenants[name] = ct
	return ct, nil
}

// closeSession retires one session slot. The tenant handle stays with the
// connection (other sessions may share it); it is released at teardown.
func (c *conn) closeSession(m *wire.SessionRef) (wire.Message, error) {
	s := c.sessionOf(m.Session)
	if s == nil {
		return nil, errUnknownSession
	}
	if perr := c.retireSession(s); perr != nil {
		return nil, perr
	}
	return m, nil
}

// retireSession releases one open session slot without answering the
// client: the session budget is returned, the (tenant, thread) key is freed
// for a fresh open, and the slot — under its next id — goes on the free
// list. Shared by closeSession and the duplicate-open path.
func (c *conn) retireSession(s *session) *protoErr {
	// A ring-bound session drains its ring before closing, so no submitted
	// event is lost; the ring becomes rebindable, and nothing but this
	// goroutine refers to the session's sink any more.
	if perr := c.shmUnbind(s.id); perr != nil {
		return perr
	}
	if s.sink != nil {
		delete(c.byKey, s.key)
	}
	c.srv.sessions.Add(-1)
	c.free = append(c.free, s.id&slotMask)
	s.open, s.sink = false, nil
	s.id += 1 << slotBits
	return nil
}

// modelInfo answers a ModelInfo request with this connection's lifecycle
// snapshot for the tenant (oracles are per-connection, so the generation
// numbers and counters describe this client's oracle).
func (c *conn) modelInfo(m *wire.TenantRef) (wire.Message, error) {
	ct, perr := c.tenantOf(m.Tenant)
	if perr != nil {
		return nil, perr
	}
	mi := ct.oracle.ModelInfo()
	return &wire.ModelInfo{
		Enabled:           mi.Enabled,
		State:             modelStateToWire(mi.State),
		ServingGeneration: mi.ServingGeneration,
		Promotions:        mi.Promotions,
		Rollbacks:         mi.Rollbacks,
		ShadowEpochs:      mi.ShadowEpochs,
		Retained:          mi.Retained,
	}, nil
}

// promote forces a promotion of the tenant's shadow model on this
// connection's oracle, rollback a return to its previous generation.
// Refusals (learning disabled, no candidate yet, nothing to go back to) are
// non-fatal CodeLifecycle errors.
func (c *conn) promote(m *wire.TenantRef) (wire.Message, error) {
	return c.lifecycle(m.Tenant, (*pythia.Oracle).Promote)
}

func (c *conn) rollback(m *wire.TenantRef) (wire.Message, error) {
	return c.lifecycle(m.Tenant, (*pythia.Oracle).Rollback)
}

func (c *conn) lifecycle(tenant string, op func(*pythia.Oracle) (uint64, error)) (wire.Message, error) {
	ct, perr := c.tenantOf(tenant)
	if perr != nil {
		return nil, perr
	}
	gen, err := op(ct.oracle)
	if err != nil {
		return nil, &protoErr{code: wire.CodeLifecycle, msg: err.Error()}
	}
	return &wire.Uint64{V: gen}, nil
}

// modelStateToWire maps a core lifecycle state string to its wire value.
func modelStateToWire(state string) uint8 {
	switch state {
	case "learning":
		return wire.ModelLearning
	case "watching":
		return wire.ModelWatching
	default:
		return wire.ModelFrozen
	}
}

// health answers a Health request for one tenant ("" = whole server).
func (c *conn) health(m *wire.TenantRef) (wire.Message, error) {
	if m.Tenant == "" {
		hi := c.srv.st.serverHealth()
		return &hi, nil
	}
	hi, ok := c.srv.st.healthOf(m.Tenant)
	if !ok {
		return nil, &protoErr{code: wire.CodeUnknownTenant, msg: fmt.Sprintf("tenant %q not loaded", m.Tenant)}
	}
	return &hi, nil
}
