// Package client is the remote counterpart of the pythia package: it
// speaks the pythiad wire protocol and exposes the same Oracle/Thread
// method set as the in-process library, so a runtime swaps local for
// remote predictions with one constructor change:
//
//	o, err := pythia.LoadOracle("bt.small.pythia", pythia.Config{})   // local
//	o, err := client.Connect("oracle:9137", "bt.small", client.Config{}) // remote
//
// Everything after the constructor is identical — Intern, Thread, Submit,
// PredictAt, PredictSequence, PredictDurationUntil, Health — and the
// predictions themselves are bit-identical to an in-process oracle replaying
// the same event stream (the protocol ships float fields as raw IEEE-754
// bits and the client interns against the server's own event table).
//
// Like the in-process oracle, the remote one fails open: a dead daemon or a
// torn connection never panics or blocks the host runtime — Submit becomes
// a no-op, predictions return ok=false, and Health reports Degraded with
// the transport cause.
//
// A transport failure is not permanent. Every connection — the first one
// inside Dial and each replacement after a failure — is made by the same
// pipeline (reconnect.go): walk the address list, dial, handshake, resume
// the parked server sessions or open them afresh, negotiate shared memory,
// mark the threads for replay. The client keeps a bounded per-thread shadow
// buffer of recent submissions, so once a background goroutine has redialed
// (jittered exponential backoff) each thread replays its unacknowledged
// tail and the server-side model converges back to the exact stream the
// host produced. While disconnected, Submit stays a cheap no-op and Health
// reports Degraded with the reconnect cause.
//
// Submissions are pipelined: Thread.Submit buffers locally and ships a
// one-way SubmitBatch frame when the buffer fills or a prediction needs the
// stream position to be current, so the per-event cost stays far below a
// network round trip.
package client

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/events"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/pythia"
)

// Defaults for Config zero values.
const (
	DefaultDialTimeout       = 5 * time.Second
	DefaultRequestTimeout    = 10 * time.Second
	DefaultSubmitFlush       = 64
	DefaultReconnectMinDelay = 50 * time.Millisecond

	// shadowEvents is the per-thread capacity (a power of two) of the shadow
	// buffer that makes post-reconnect replay possible.
	shadowEvents = 4096
	shadowMask   = shadowEvents - 1

	// maxReconnectDelay caps the exponential backoff between redials.
	maxReconnectDelay = 2 * time.Second
	// replayChunk bounds one TReplay frame's id count during recovery.
	replayChunk = 4096
)

// Config tunes a client connection; the zero value selects defaults.
type Config struct {
	// DialTimeout bounds connection establishment plus the protocol
	// handshake. 0 means DefaultDialTimeout.
	DialTimeout time.Duration
	// RequestTimeout bounds each request/response round trip (and each
	// one-way batch write). 0 means DefaultRequestTimeout.
	RequestTimeout time.Duration
	// SubmitFlush is the number of buffered submissions that triggers a
	// one-way SubmitBatch flush. 0 means DefaultSubmitFlush; 1 disables
	// batching.
	SubmitFlush int
	// SharedMem asks for the shared-memory ring transport when the
	// connection lands on a unix socket: per-thread SPSC rings in an
	// mmap'd segment, zero syscalls on the steady-state Submit path. A
	// refused or failed negotiation silently keeps the socket transport
	// (the shm → uds fail-open fallback); Client.Transport reports the
	// tier that actually engaged.
	SharedMem bool
	// ShmDir is where the segment file is created ("" = /dev/shm when
	// present, else the system temp directory). Only read with SharedMem.
	ShmDir string
	// ReconnectMinDelay is the first redial backoff step; each failed
	// attempt doubles it up to an internal cap, with jitter. 0 means
	// DefaultReconnectMinDelay.
	ReconnectMinDelay time.Duration
}

// RemoteError is a protocol Error frame returned by the server as the
// response to a request: Code, Msg, and — on CodeRetryLater — the server's
// RetryAfterMs backoff hint.
type RemoteError = wire.RemoteError

// errClosed is the latched cause of an explicitly closed client.
var errClosed = errors.New("client: closed")

// Connection states. Submit reads the state with one atomic load, so the
// disconnected fast path costs a compare, not a lock.
const (
	stateConnected int32 = iota
	stateReconnecting
	stateClosed
)

// Stats are the client's cumulative resilience counters.
type Stats struct {
	// Reconnects counts completed reconnections (resumed or fresh).
	Reconnects uint64
	// DroppedEvents counts submissions lost across reconnects because
	// they had already been evicted from a thread's shadow buffer.
	DroppedEvents uint64
	// RetryLater counts CodeRetryLater responses (server-side shedding).
	RetryLater uint64
}

// Client is one connection to a pythiad daemon. It is safe for concurrent
// use; request/response cycles are serialized internally. A transport
// failure flips the client into a reconnecting state: operations fail open
// while a background goroutine redials, and the first failure stays
// visible through Err until a reconnect succeeds.
type Client struct {
	cfg   Config
	addrs []string // fallback list, parsed once at Dial, walked by every connect

	// state is the connection lifecycle, readable without the lock.
	state atomic.Int32

	statReconnects atomic.Uint64
	statDropped    atomic.Uint64
	statRetryLater atomic.Uint64

	mu      sync.Mutex
	network string     // "tcp" or "unix"; renegotiated on reconnect
	conn    *wire.Conn // the framed connection; replaced on reconnect
	cause   error      // first failure of the current outage; nil when healthy

	// resumeToken is the server's grant from the latest handshake; 0 when
	// the server offered none.
	resumeToken uint64

	// oracles lists every oracle opened on this client, so a reconnect
	// can re-establish their sessions. Guarded by mu.
	oracles []*Oracle

	// shm is the negotiated shared-memory state. On disconnect the pointer
	// drops to nil and a reconnect negotiates a fresh segment; the old
	// mapping is intentionally leaked until process exit because a
	// submitting goroutine may still be mid-TryPush into it.
	shm atomic.Pointer[clientShm]

	quit chan struct{}  // closed by Close; stops the reconnect goroutine
	wg   sync.WaitGroup // joins the reconnect goroutine
}

// Transport reports the tier this connection actually negotiated:
// "shm" (shared-memory rings over a unix control socket), "unix", or "tcp".
func (c *Client) Transport() string {
	if c.shm.Load() != nil {
		return "shm"
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.network
}

// Stats returns the cumulative resilience counters.
func (c *Client) Stats() Stats {
	return Stats{
		Reconnects:    c.statReconnects.Load(),
		DroppedEvents: c.statDropped.Load(),
		RetryLater:    c.statRetryLater.Load(),
	}
}

// ShardMap fetches the daemon's current cluster shard map, sending the
// caller's cached epoch along (daemons fold it into their max-wins epoch
// gossip). A daemon that is not clustered answers with a zero Map —
// Clustered() is false — which callers treat as "this daemon serves every
// tenant".
func (c *Client) ShardMap(cachedEpoch uint64) (cluster.Map, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var sm wire.ShardMap
	if err := c.call(wire.TShardMap, &wire.Uint64{V: cachedEpoch}, &sm); err != nil {
		return cluster.Map{}, err
	}
	return cluster.Map{Epoch: sm.Epoch, Replicas: int(sm.Replicas), Daemons: sm.Daemons}, nil
}

// Dial connects to a pythiad daemon and performs the protocol handshake.
// addr is a transport address — "host:port" or "tcp://host:port" for TCP,
// "unix:///path/to.sock" for a unix-domain socket — or a comma-separated
// list tried in order, which is how a co-located client spells the
// uds → tcp fallback: "unix:///run/pythiad.sock,127.0.0.1:9137". With
// Config.SharedMem set, a unix connection is upgraded to shared-memory
// rings when the daemon accepts (the shm → uds half of the chain). Dial
// runs the connect pipeline once, synchronously; the reconnect loop runs
// the same pipeline over the same list after a transport failure.
func Dial(addr string, cfg Config) (*Client, error) {
	if cfg.DialTimeout == 0 {
		cfg.DialTimeout = DefaultDialTimeout
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = DefaultRequestTimeout
	}
	if cfg.SubmitFlush <= 0 {
		cfg.SubmitFlush = DefaultSubmitFlush
	}
	if cfg.ReconnectMinDelay <= 0 {
		cfg.ReconnectMinDelay = DefaultReconnectMinDelay
	}
	c := &Client{cfg: cfg, quit: make(chan struct{})}
	for _, a := range strings.Split(addr, ",") {
		if a = strings.TrimSpace(a); a != "" {
			c.addrs = append(c.addrs, a)
		}
	}
	if len(c.addrs) == 0 {
		return nil, fmt.Errorf("client: no address in %q", addr)
	}
	// A first connect is a reconnect with nothing to restore: no token, no
	// oracles, no threads.
	c.state.Store(stateReconnecting)
	if err := c.connect(); err != nil {
		return nil, err
	}
	return c, nil
}

// Close detaches from the daemon (so the server releases rather than parks
// this client's sessions), flushes, closes the connection, and joins the
// background goroutines. Further operations fail open. A transport failure
// latched before Close stays visible through Err — a clean close must not
// erase the record that the run broke.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.state.Load() == stateClosed {
		c.mu.Unlock()
		return nil
	}
	wasConnected := c.state.Load() == stateConnected
	c.state.Store(stateClosed)
	if c.cause == nil {
		c.cause = errClosed
	}
	var ferr error
	if wasConnected {
		if c.resumeToken != 0 {
			ferr = c.conn.Send(wire.TDetach, &wire.Empty{})
		}
		if err := c.conn.BW.Flush(); err != nil && ferr == nil {
			ferr = err
		}
	}
	cerr := c.conn.NC.Close()
	c.mu.Unlock()
	close(c.quit)
	c.wg.Wait()
	if ferr != nil {
		return ferr
	}
	if wasConnected {
		return cerr
	}
	return nil
}

// Err returns the latched transport error: nil while the connection is
// healthy or after a clean Close, the first failure of the current outage
// otherwise. A successful reconnect clears it, so a load generator polling
// Err sees the outage end; a load generator that checks once at the end of
// a run sees whether it ended broken.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if errors.Is(c.cause, errClosed) {
		return nil
	}
	return c.cause
}

// fail routes a transport/protocol failure into the reconnect machinery
// and returns the latched cause of the outage (the first failure wins).
// Caller holds c.mu.
func (c *Client) fail(err error) error {
	c.disconnectLocked(err)
	if c.cause != nil {
		return c.cause
	}
	return err
}

// offlineErr returns nil when requests may proceed, the latched cause (or
// errClosed) otherwise. Caller holds c.mu.
func (c *Client) offlineErr() error {
	switch c.state.Load() {
	case stateConnected:
		return nil
	case stateClosed:
		if c.cause != nil {
			return c.cause
		}
		return errClosed
	default:
		if c.cause != nil {
			return c.cause
		}
		return errors.New("client: reconnecting")
	}
}

// writeOneWay ships a frame that expects no response; a failure starts the
// reconnect machinery and the frame's events are re-delivered from the
// shadow buffer. Caller holds c.mu.
func (c *Client) writeOneWay(t wire.Type, payload []byte) {
	if c.offlineErr() != nil {
		return
	}
	if err := c.conn.NC.SetWriteDeadline(time.Now().Add(c.cfg.RequestTimeout)); err != nil {
		c.disconnectLocked(err)
		return
	}
	if err := wire.WriteFrame(c.conn.BW, t, payload); err != nil {
		c.disconnectLocked(err)
	}
}

// call runs one request/reply exchange: req goes out as a frame of type t
// and the reply the frame table names for t is decoded into resp. A refusal
// comes back as a *RemoteError; anything else that goes wrong has already
// started a reconnect. Caller holds c.mu.
func (c *Client) call(t wire.Type, req, resp wire.Message) error {
	if err := c.offlineErr(); err != nil {
		return err
	}
	return c.exchange(t, req, resp)
}

// exchange is call without the connection-state gate; the connect pipeline
// uses it to talk over a connection that is still being established.
// Caller holds c.mu.
func (c *Client) exchange(t wire.Type, req, resp wire.Message) error {
	return c.settle(c.conn.Exchange(t, req, resp, c.cfg.RequestTimeout))
}

// settle sorts the outcome of an exchange. An Error frame keeps
// request/response pairing intact — the connection stays usable, so it is
// returned as is (and counted, when it is the server shedding load); any
// other failure trips the reconnect machinery. Caller holds c.mu.
func (c *Client) settle(err error) error {
	var re *RemoteError
	switch {
	case err == nil:
		return nil
	case errors.As(err, &re):
		if re.Code == wire.CodeRetryLater {
			c.statRetryLater.Add(1)
		}
		return err
	}
	return c.fail(err)
}

// openSession opens one (tenant, tid) session. Caller holds c.mu and has
// checked the connection state (the connect pipeline calls this on a
// connection that is still being established).
func (c *Client) openSession(tenant string, tid int32, flags uint8) (wire.SessionOpened, error) {
	var so wire.SessionOpened
	err := c.exchange(wire.TOpenSession, &wire.OpenSession{TID: tid, Flags: flags, Tenant: tenant}, &so)
	return so, err
}

// closeSession closes one server-side session. Caller holds c.mu.
func (c *Client) closeSession(sid uint32) error {
	return c.call(wire.TCloseSession, &wire.SessionRef{Session: sid}, &wire.SessionRef{})
}

// Oracle opens a remote oracle over one tenant (a named trace in the
// daemon's trace directory). The returned Oracle mirrors the in-process
// pythia.Oracle API. Multiple oracles may share one client.
func (c *Client) Oracle(tenant string) (*Oracle, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.offlineErr(); err != nil {
		return nil, err
	}
	o := &Oracle{c: c, tenant: tenant, threads: make(map[int32]*Thread)}
	if err := o.open(); err != nil {
		return nil, err
	}
	c.oracles = append(c.oracles, o)
	return o, nil
}

// Connect dials a daemon and opens one tenant's oracle in one call — the
// remote equivalent of pythia.LoadOracle. Closing the oracle closes the
// connection.
func Connect(addr, tenant string, cfg Config) (*Oracle, error) {
	c, err := Dial(addr, cfg)
	if err != nil {
		return nil, err
	}
	o, err := c.Oracle(tenant)
	if err != nil {
		if cerr := c.Close(); cerr != nil {
			err = errors.Join(err, cerr)
		}
		return nil, err
	}
	o.owned = true
	return o, nil
}

// Oracle is a remote predicting oracle over one tenant. Like the
// in-process Oracle it is safe for concurrent Thread lookup and interning,
// and each Thread handle must be used by one goroutine at a time.
type Oracle struct {
	c      *Client
	tenant string
	reg    *events.Registry
	// eventNames is the server's event table at open time, kept verbatim
	// for the check in open.
	eventNames []string
	owned      bool // Connect-created: Close closes the client too

	// meta is the tenant-pinning session id; rewritten under c.mu when a
	// reconnect reopens it.
	meta uint32

	mu      sync.Mutex
	threads map[int32]*Thread
	closed  bool  // Close ran: threads created from here on are inert
	openErr error // first session-open refusal, surfaced via Health
}

// errEventTable marks a tenant whose event table no longer matches the one
// the oracle interned against.
var errEventTable = errors.New("event table changed; oracle disabled")

// open opens the tenant's meta session (tid -1) on the current connection.
// The meta session pins the tenant in the daemon's store for the life of
// the connection and fetches the event table the trace was recorded with.
// The first open builds the registry from it, so local interning assigns
// the same IDs the server-side registry holds; a reopen after a reconnect
// verifies the (possibly restarted) daemon still serves that vocabulary —
// a different trace under the same name would silently corrupt interning.
// Caller holds c.mu.
func (o *Oracle) open() error {
	so, err := o.c.openSession(o.tenant, -1, wire.FlagWantEvents)
	if err != nil {
		return err
	}
	o.meta = so.Session
	switch {
	case o.reg == nil:
		if o.reg, err = events.FromNames(so.Events); err != nil {
			return o.c.fail(fmt.Errorf("client: tenant %q event table: %w", o.tenant, err))
		}
		o.eventNames = so.Events
	case !slices.Equal(so.Events, o.eventNames):
		return errEventTable
	}
	return nil
}

// Tenant returns the tenant name this oracle serves.
func (o *Oracle) Tenant() string { return o.tenant }

// Transport reports the connection's negotiated transport tier
// ("tcp", "unix", or "shm").
func (o *Oracle) Transport() string { return o.c.Transport() }

// Close closes every session the oracle opened — its threads' and the meta
// session, releasing the daemon-side session budget, ring slots and tenant
// pin — unlinks the oracle from the client and, for Connect-created
// oracles, closes the underlying connection. The oracle's threads fail open
// from here on. Closing twice is a no-op.
func (o *Oracle) Close() error {
	c := o.c
	c.mu.Lock()
	var err error
	if i := slices.Index(c.oracles, o); i >= 0 {
		c.oracles = slices.Delete(c.oracles, i, i+1)
		o.mu.Lock()
		o.closed = true
		o.mu.Unlock()
		var sids []uint32
		for _, t := range o.threadList() {
			t.inert.Store(true)
			if t.opened {
				t.opened = false
				t.releaseRingLocked(c)
				t.ring.Store(nil)
				sids = append(sids, t.sid)
			}
		}
		// The meta session goes last: it is the tenant pin. Offline there is
		// nothing to close — the sessions died with the connection, or
		// restore closes them as unclaimed if they come back in a resume.
		for _, sid := range append(sids, o.meta) {
			if c.state.Load() != stateConnected {
				break
			}
			err = errors.Join(err, c.closeSession(sid))
		}
	}
	c.mu.Unlock()
	if o.owned {
		err = errors.Join(err, c.Close())
	}
	return err
}

// Intern returns the event ID for a key point name, optionally
// discriminated by payload values. IDs are assigned exactly as the
// server-side registry assigned them when the trace was recorded, so a
// submitted ID means the same event on both ends; names the trace has
// never seen get fresh local IDs that the server treats as unknown events,
// exactly like an in-process predicting oracle.
func (o *Oracle) Intern(name string, args ...int64) pythia.ID {
	return o.reg.InternArgs(name, args...)
}

// Lookup resolves an already-interned descriptor without creating it.
func (o *Oracle) Lookup(name string, args ...int64) pythia.ID {
	return o.reg.Lookup(name, args...)
}

// EventName returns the descriptor of an event ID.
func (o *Oracle) EventName(id pythia.ID) string { return o.reg.Name(id) }

// Recording reports whether the oracle is recording; remote oracles only
// predict.
func (o *Oracle) Recording() bool { return false }

// noteOpenErr records the first session-open refusal for Health; nil
// clears it (service restored).
func (o *Oracle) noteOpenErr(err error) {
	o.mu.Lock()
	if err == nil || o.openErr == nil {
		o.openErr = err
	}
	o.mu.Unlock()
}

// threadList snapshots the oracle's threads, so the caller can walk them
// under c.mu alone — the lock all per-thread session state is written under.
func (o *Oracle) threadList() []*Thread {
	o.mu.Lock()
	defer o.mu.Unlock()
	threads := make([]*Thread, 0, len(o.threads))
	for _, t := range o.threads {
		threads = append(threads, t)
	}
	return threads
}

// Thread returns the oracle handle for thread tid, creating it on first
// use. The handle is never nil; if the remote session cannot be opened the
// handle is inert and the oracle reports Degraded.
func (o *Oracle) Thread(tid int32) *Thread {
	o.mu.Lock()
	defer o.mu.Unlock()
	if t, ok := o.threads[tid]; ok {
		return t
	}
	t := &Thread{
		o:       o,
		tid:     tid,
		pending: make([]int32, 0, o.c.cfg.SubmitFlush),
		shadow:  make([]int32, shadowEvents),
	}
	t.inert.Store(o.closed)
	o.threads[tid] = t
	return t
}

// flushAll drains every thread's buffered submissions into the write
// buffer, so a Health snapshot reflects everything submitted so far; the
// Health round trip itself pushes the frames onto the socket. Caller must
// NOT hold c.mu.
func (o *Oracle) flushAll() {
	threads := o.threadList()
	c := o.c
	c.mu.Lock()
	for _, t := range threads {
		t.flushLocked(c)
	}
	c.mu.Unlock()
}

// Health returns the tenant's aggregate degradation state as reported by
// the daemon, folded with any client-side failure: a broken transport or a
// refused session means predictions are not being served, which is a
// Degraded condition here even though the daemon may be healthy. While the
// client is reconnecting, the cause of the outage is the reported cause.
func (o *Oracle) Health() pythia.Health {
	o.flushAll()
	c := o.c
	c.mu.Lock()
	var hi wire.HealthInfo
	err := c.call(wire.THealth, &wire.TenantRef{Tenant: o.tenant}, &hi)
	c.mu.Unlock()

	var h pythia.Health
	if err != nil {
		h.State = pythia.Degraded
		h.Cause = "client: " + err.Error()
		return h
	}
	h.State = stateFromWire(hi.State)
	h.Cause = hi.Cause
	h.PanicsContained = hi.PanicsContained
	h.BudgetBreaches = hi.BudgetBreaches
	h.QuarantinedThreads = hi.QuarantinedThreads
	h.CheckpointFailures = hi.CheckpointFailures
	h.Promotions = hi.Promotions
	h.Rollbacks = hi.Rollbacks
	o.mu.Lock()
	openErr := o.openErr
	o.mu.Unlock()
	if openErr != nil && h.State == pythia.Healthy {
		h.State = pythia.Degraded
		h.Cause = "client: " + openErr.Error()
	}
	return h
}

// ModelInfo queries the server for this tenant's model-lifecycle snapshot
// (the per-connection oracle serving this client): lifecycle state, serving
// generation, promotion/rollback/epoch counters. Pending submissions are
// flushed first so the counters reflect everything submitted so far.
func (o *Oracle) ModelInfo() (pythia.ModelInfo, error) {
	o.flushAll()
	c := o.c
	c.mu.Lock()
	defer c.mu.Unlock()
	var wmi wire.ModelInfo
	if err := c.call(wire.TModelInfo, &wire.TenantRef{Tenant: o.tenant}, &wmi); err != nil {
		return pythia.ModelInfo{}, err
	}
	mi := pythia.ModelInfo{
		Enabled:           wmi.Enabled,
		ServingGeneration: wmi.ServingGeneration,
		Promotions:        wmi.Promotions,
		Rollbacks:         wmi.Rollbacks,
		ShadowEpochs:      wmi.ShadowEpochs,
		Retained:          wmi.Retained,
	}
	switch wmi.State {
	case wire.ModelLearning:
		mi.State = "learning"
	case wire.ModelWatching:
		mi.State = "watching"
	default:
		mi.State = "frozen"
	}
	return mi, nil
}

// Promote forces a promotion of this tenant's shadow model on the server.
// A refusal (learning disabled, no shadow candidate yet) comes back as a
// *RemoteError with CodeLifecycle; the connection stays usable.
func (o *Oracle) Promote() (uint64, error) { return o.mint(wire.TPromote) }

// Rollback forces a rollback to the previous generation on the server.
func (o *Oracle) Rollback() (uint64, error) { return o.mint(wire.TRollback) }

// mint runs a forced lifecycle transition (Promote or Rollback) and returns
// the generation it minted. Pending submissions are flushed first.
func (o *Oracle) mint(t wire.Type) (uint64, error) {
	o.flushAll()
	c := o.c
	c.mu.Lock()
	defer c.mu.Unlock()
	var gen wire.Uint64
	err := c.call(t, &wire.TenantRef{Tenant: o.tenant}, &gen)
	return gen.V, err
}

// stateFromWire maps a wire degradation state back onto the library's.
func stateFromWire(st uint8) pythia.State {
	switch st {
	case wire.StateDegraded:
		return pythia.Degraded
	case wire.StateQuarantined:
		return pythia.Quarantined
	default:
		return pythia.Healthy
	}
}

// Thread is the per-thread handle of a remote oracle, mirroring
// pythia.Thread: Submit, PredictAt, PredictSequence, PredictDurationUntil,
// StartAtBeginning. One submitting goroutine per handle, like the
// in-process library — but, also like the in-process library, Oracle.Health
// (and Flush) may be called from another goroutine, so the submit buffer
// carries its own lock.
type Thread struct {
	o   *Oracle
	tid int32

	// Session state, guarded by the client mutex c.mu.
	sid       uint32
	opened    bool
	startFlag bool // StartAtBeginning before the session exists

	// sessBase anchors the server session's 1-based sequence numbers in
	// the thread's absolute stream: the event with absolute sequence s has
	// server sequence s-sessBase. Guarded by c.mu; rewritten whenever the
	// session is (re)opened from scratch.
	sessBase uint64

	// Reconnect recovery, guarded by c.mu: restore marks, replayLocked
	// works it off. needReplay marks a thread whose next producer-side
	// flush must replay the shadow tail instead of shipping pending — after
	// reopening the session from scratch when opened is false;
	// resumeApplied is the absolute sequence the server has applied when
	// the session itself survived (resume).
	needReplay    bool
	resumeApplied uint64

	inert atomic.Bool // session refused; fail open

	// Shadow buffer: the last len(shadow) submitted ids, owned entirely by
	// the submitting goroutine (replay runs on that goroutine too, so no
	// other goroutine ever reads these fields). shadowSeq is the absolute
	// count of events ever submitted on this thread.
	shadow    []int32
	shadowSeq uint64
	replayBuf []int32 // scratch for TReplay chunks, allocated on first use

	// Shared-memory fast path: once ring is set, Submit becomes a single
	// TryPush into the mapped ring — no lock, no buffer, no syscall. The
	// pointers are atomic because a reconnect strips them from another
	// goroutine; shmTried latches so a failed bind falls back to socket
	// batching once per connection epoch.
	ring     atomic.Pointer[transport.Ring]
	ringIdx  int
	shmOwner *clientShm // segment the bound ring belongs to, under c.mu
	shmTried atomic.Bool

	// pending is the submit buffer. Submit appends under pmu, and the
	// flush path drains under pmu while holding c.mu, so a monitoring
	// goroutine's Health/Flush never races the submitting goroutine.
	// Lock order: c.mu before pmu — Submit releases pmu before flushing.
	pmu     sync.Mutex
	pending []int32
}

// TID returns the thread identifier.
func (t *Thread) TID() int32 { return t.tid }

// shadowPush records an event in the thread's replay window. Called by the
// submitting goroutine on every Submit, before any transport work, so the
// shadow always holds a superset of what the server might not have seen.
func (t *Thread) shadowPush(id int32) {
	t.shadow[t.shadowSeq&shadowMask] = id
	t.shadowSeq++
}

// ensureOpen opens the remote session on first use. Caller holds c.mu.
func (t *Thread) ensureOpen(c *Client) bool {
	if t.opened {
		return true
	}
	if t.inert.Load() || c.offlineErr() != nil {
		return false
	}
	var flags uint8
	if t.startFlag {
		flags |= wire.FlagStartAtBeginning
	}
	so, err := c.openSession(t.o.tenant, t.tid, flags)
	if err != nil {
		// Refused (draining, session limit, …): the thread fails open and
		// stays inert; the refusal is visible through Oracle.Health.
		t.inert.Store(true)
		t.o.noteOpenErr(err)
		return false
	}
	t.sid = so.Session
	t.opened = true
	t.startFlag = false
	return true
}

// flushLocked drains the submit buffer into one SubmitBatch frame in the
// write buffer; it does not flush the socket. A thread awaiting replay is
// skipped — ordering requires the shadow tail to reach the server before
// anything newer, and only the submitting goroutine may read the shadow,
// so recovery waits for that goroutine's next syncLocked. Caller holds
// c.mu.
func (t *Thread) flushLocked(c *Client) {
	if t.needReplay {
		return
	}
	t.pmu.Lock()
	if len(t.pending) == 0 {
		t.pmu.Unlock()
		return
	}
	if !t.ensureOpen(c) {
		t.pending = t.pending[:0]
		t.pmu.Unlock()
		return
	}
	c.conn.Out = wire.AppendSubmitBatch(c.conn.Out[:0], t.sid, t.pending)
	t.pending = t.pending[:0]
	t.pmu.Unlock()
	c.writeOneWay(wire.TSubmitBatch, c.conn.Out)
}

// syncLocked is flushLocked for paths that run on the submitting
// goroutine: it first performs any pending post-reconnect replay (which
// needs the shadow buffer only that goroutine may read). Caller holds
// c.mu.
func (t *Thread) syncLocked(c *Client) {
	if t.needReplay {
		t.replayLocked(c)
	}
	t.flushLocked(c)
}

// Flush ships any buffered submissions now, pushing them all the way onto
// the socket. Predictions flush implicitly; Flush exists for hosts that
// want the server-side stream position current before a quiet period, so
// unlike the fill-triggered batching inside Submit it does not leave the
// frame sitting in the write buffer.
func (t *Thread) Flush() {
	c := t.o.c
	c.mu.Lock()
	t.syncLocked(c)
	if c.state.Load() == stateConnected {
		if err := c.conn.BW.Flush(); err != nil {
			c.disconnectLocked(err)
		}
	}
	c.mu.Unlock()
}

// Submit notifies the oracle of an event. On a shared-memory connection
// the event goes straight into the thread's mapped ring — zero syscalls,
// zero allocations, single-digit nanoseconds. Otherwise submissions are
// buffered and shipped in one-way batches; a prediction on this thread
// flushes first, so the oracle always answers against the full submitted
// stream. While the client is disconnected, Submit records the event in
// the shadow buffer and returns — the reconnect replay delivers it later.
func (t *Thread) Submit(id pythia.ID) {
	t.shadowPush(int32(id))
	if r := t.ring.Load(); r != nil {
		if r.TryPush(int32(id)) {
			return
		}
		t.pushSlow(int32(id))
		return
	}
	c := t.o.c
	if c.state.Load() != stateConnected {
		return
	}
	if t.inert.Load() {
		return
	}
	if !t.shmTried.Load() && c.shm.Load() != nil {
		// Bind before the first event is buffered, so a ring-bound thread
		// never has socket-buffered events to reorder behind ring entries.
		t.bindRing()
		if r := t.ring.Load(); r != nil {
			if r.TryPush(int32(id)) {
				return
			}
			t.pushSlow(int32(id))
			return
		}
		if t.inert.Load() {
			return
		}
	}
	t.pmu.Lock()
	t.pending = append(t.pending, int32(id))
	full := len(t.pending) >= cap(t.pending)
	t.pmu.Unlock()
	if full {
		// Fill-triggered: encode the batch frame but let it ride the write
		// buffer out with the next round trip or explicit Flush — the
		// pipelining that keeps per-event cost below a syscall.
		c.mu.Lock()
		t.syncLocked(c)
		c.mu.Unlock()
	}
}

// StartAtBeginning seeds prediction at the start of the reference trace.
func (t *Thread) StartAtBeginning() {
	if t.restartLocked() {
		// Drop the thread's ring pointer after the locked section: the
		// server unbound its side while retiring the old session, so the
		// slot is free for whoever binds next.
		t.ring.Store(nil)
		t.shmTried.Store(false)
	}
}

// restartLocked does the locked half of StartAtBeginning and reports
// whether the thread held a ring slot that was just released.
func (t *Thread) restartLocked() (hadRing bool) {
	c := t.o.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if !t.opened {
		t.startFlag = true
		return false
	}
	// Mid-stream restart: flush what came before, then reopen the session
	// with the start flag — one round trip. The daemon's last-open-wins
	// OpenSession retires the old session first, exactly as CloseSession
	// would: it drains and unbinds the old session's ring, and a refused
	// reopen leaves no session behind. The daemon keeps one oracle thread
	// per (tenant, tid) per connection, so the reopened session continues
	// on the same thread — exactly the in-process StartAtBeginning.
	t.syncLocked(c)
	if !t.opened {
		// The sync above hit a refusal or an outage; the restart intent
		// survives in startFlag for the eventual reopen.
		t.startFlag = true
		return false
	}
	// Whatever the reopen's outcome, the old session's ring binding is gone
	// — retired by the daemon, or torn down with a failed connection: release
	// the client-side slot so the reopened session (or another thread) can
	// rebind on its next Submit.
	hadRing = t.releaseRingLocked(c)
	t.opened = false
	t.startFlag = true
	// The reopened session restarts server-side sequence numbering, and
	// this runs on the submitting goroutine, so shadowSeq is stable here.
	t.sessBase = t.shadowSeq
	t.ensureOpen(c)
	return hadRing
}

// PredictAt predicts the event distance events from now. ok is false when
// the oracle has no answer — including when the daemon is unreachable.
func (t *Thread) PredictAt(distance int) (pythia.Prediction, bool) {
	c := t.o.c
	c.mu.Lock()
	defer c.mu.Unlock()
	t.syncLocked(c)
	if !t.ensureOpen(c) {
		return pythia.Prediction{}, false
	}
	// The query path keeps the hand-written codec: it must not allocate.
	c.conn.Out = wire.AppendPredictAt(c.conn.Out[:0], t.sid, distance)
	resp, err := c.conn.RoundTrip(wire.TPredictAt, c.conn.Out, c.cfg.RequestTimeout)
	if c.settle(err) != nil {
		return pythia.Prediction{}, false
	}
	pr, ok, perr := wire.ParsePrediction(resp)
	if perr != nil {
		c.disconnectLocked(perr)
		return pythia.Prediction{}, false
	}
	return pr, ok
}

// PredictSequence predicts the next n events (step i has Distance i+1).
// n is capped at wire.MaxPredictions, the most one response frame carries;
// the server clamps to the same bound.
func (t *Thread) PredictSequence(n int) []pythia.Prediction {
	if n > wire.MaxPredictions {
		n = wire.MaxPredictions
	}
	c := t.o.c
	c.mu.Lock()
	defer c.mu.Unlock()
	t.syncLocked(c)
	if !t.ensureOpen(c) {
		return nil
	}
	var resp wire.Predictions
	if c.call(wire.TPredictSequence, &wire.SessionArg{Session: t.sid, Arg: uint32(n)}, &resp) != nil {
		return nil
	}
	return resp.Preds
}

// PredictDurationUntil predicts the time until the next occurrence of the
// event, looking at most maxDistance events ahead. It is computed from one
// PredictSequence round trip; the result is bit-identical to the
// in-process method, which scans the same per-step predictions.
func (t *Thread) PredictDurationUntil(id pythia.ID, maxDistance int) (pythia.Prediction, bool) {
	if maxDistance < 1 {
		return pythia.Prediction{}, false
	}
	for _, pr := range t.PredictSequence(maxDistance) {
		if pr.EventID == int32(id) {
			return pr, true
		}
	}
	return pythia.Prediction{}, false
}
