// Package wire defines pythiad's binary protocol: the framing, the table of
// frame types, and the encoding of every message a client runtime exchanges
// with a networked oracle daemon (cmd/pythiad, internal/server, pythia/client).
//
// A connection carries a stream of length-prefixed frames:
//
//	uint32 BE  n        total frame body length (type byte + payload), 1..MaxFrame
//	byte       type     frame type (Type constants)
//	n-1 bytes  payload  fixed-layout fields, big-endian; strings are uint16
//	                    length-prefixed UTF-8
//
// The conversation starts with Hello/HelloOK (version negotiation); after
// that the client opens per-(tenant, thread) sessions and submits events /
// queries predictions on them. SubmitBatch and Detach are one-way —
// the server answers nothing on success, which is what makes pipelined batch
// submission cheap; every other request frame is answered by exactly one
// response frame (the reply type its row of the frame table names, or
// Error), in request order.
//
// Each frame type is described once, by its row in the frame table (name,
// direction, reply, message value), and each message once, by a field walk
// that one codec runs in either direction: Append encodes, Decode reads
// through a bounds-latching cursor that never trusts a length field further
// than the bytes actually present (a torn or hostile frame yields an error,
// not a panic or an oversized allocation). Only the request hot path
// (SubmitBatch/PredictAt/Prediction) is written out by hand, because
// it must allocate nothing in either direction.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"time"

	"repro/internal/predictor"
)

// Version is the protocol version this build speaks. A server refuses a
// Hello carrying a different major version with CodeBadVersion.
const Version uint16 = 1

// helloMagic guards against a non-pythia client dialing the port: it is the
// first field of the first frame ("PYTH").
const helloMagic uint32 = 0x50595448

// MaxFrame caps the total frame body length (type byte + payload). Both
// sides refuse larger frames before allocating anything, so a hostile
// length prefix cannot drive an oversized allocation.
const MaxFrame = 1 << 22

// MaxPredictions is the largest PredictSequence count whose response still
// fits in one frame: each prediction is 24 bytes, after the count word and
// the frame type byte. Servers clamp the requested count to this bound so
// a hostile 8-byte request frame cannot demand an unbounded allocation —
// the same guarantee MaxFrame gives on the decode side.
const MaxPredictions = (MaxFrame - 5) / 24

// MaxDaemons caps the daemon count of a decoded shard map. Fleets are tens
// of daemons, not thousands.
const MaxDaemons = 256

// MaxModelBytes caps the serialized model carried by one TOfferModel frame,
// leaving headroom inside MaxFrame for the frame's own header fields.
const MaxModelBytes = MaxFrame - 512

// Type identifies a frame.
type Type uint8

// Frame types. The frame table below says which way each one flows, what
// answers it and what its payload is; DESIGN.md §10 lists the fields.
// Type 5 (the retired single-event Submit) and types 26 and 27 (the retired
// Heartbeat pair) stay unassigned and are never reused: a peer that sends
// one gets the fatal CodeBadFrame of any unknown type.
const (
	THello           Type = 1
	THelloOK         Type = 2
	TOpenSession     Type = 3
	TSessionOpened   Type = 4
	TSubmitBatch     Type = 6
	TPredictAt       Type = 7
	TPrediction      Type = 8
	TPredictSequence Type = 9
	TPredictions     Type = 10
	THealth          Type = 11
	THealthInfo      Type = 12
	TCloseSession    Type = 13
	TSessionClosed   Type = 14
	TError           Type = 15
	TShmSetup        Type = 16
	TShmSetupOK      Type = 17
	TShmBind         Type = 18
	TShmBound        Type = 19
	TSubscribe       Type = 20
	TSubscribed      Type = 21
	TResume          Type = 22
	TResumed         Type = 23
	TReplay          Type = 24
	TReplayed        Type = 25
	TDetach          Type = 28
	TModelInfo       Type = 29
	TModelInfoR      Type = 30
	TPromote         Type = 31
	TPromoted        Type = 32
	TRollback        Type = 33
	TRolledBack      Type = 34
	TShardMap        Type = 35
	TShardMapR       Type = 36
	TFetchModel      Type = 37
	TOfferModel      Type = 38
	TModelAccepted   Type = 39
)

// Dir says which way a frame type flows.
type Dir uint8

// Frame directions.
const (
	ToServer Dir = iota + 1 // request: client (or peer daemon) to server
	ToClient                // response: server to client
	BothWays                // OfferModel: the answer to FetchModel and a daemon-to-daemon request
)

// frame is one row of the frame table: everything the protocol knows about
// a frame type apart from its field layout, which is the walk method of the
// message value msg returns.
type frame struct {
	name  string
	dir   Dir
	reply Type           // the frame that answers this one; 0 for one-way frames and for replies
	msg   func() Message // a zero message value; nil for the hand-written hot-path frames
}

func msg[M any, P interface {
	*M
	Message
}]() Message {
	return P(new(M))
}

// frames is the frame table, indexed by Type (every Type has a row; the
// unassigned ones are zero). Type.String, Type.Reply, New, the exchange
// path's "which reply do I expect", the server's handler adaptor and every
// table-driven test are answered from it.
var frames = [math.MaxUint8 + 1]frame{
	THello:           {"Hello", ToServer, THelloOK, msg[Hello]},
	THelloOK:         {"HelloOK", ToClient, 0, msg[HelloOK]},
	TOpenSession:     {"OpenSession", ToServer, TSessionOpened, msg[OpenSession]},
	TSessionOpened:   {"SessionOpened", ToClient, 0, msg[SessionOpened]},
	TSubmitBatch:     {"SubmitBatch", ToServer, 0, nil},
	TPredictAt:       {"PredictAt", ToServer, TPrediction, nil},
	TPrediction:      {"Prediction", ToClient, 0, nil},
	TPredictSequence: {"PredictSequence", ToServer, TPredictions, msg[SessionArg]},
	TPredictions:     {"Predictions", ToClient, 0, msg[Predictions]},
	THealth:          {"Health", ToServer, THealthInfo, msg[TenantRef]},
	THealthInfo:      {"HealthInfo", ToClient, 0, msg[HealthInfo]},
	TCloseSession:    {"CloseSession", ToServer, TSessionClosed, msg[SessionRef]},
	TSessionClosed:   {"SessionClosed", ToClient, 0, msg[SessionRef]},
	TError:           {"Error", ToClient, 0, msg[RemoteError]},
	TShmSetup:        {"ShmSetup", ToServer, TShmSetupOK, msg[ShmSetup]},
	TShmSetupOK:      {"ShmSetupOK", ToClient, 0, msg[ShmSetupOK]},
	TShmBind:         {"ShmBind", ToServer, TShmBound, msg[SessionArg]},
	TShmBound:        {"ShmBound", ToClient, 0, msg[SessionArg]},
	TSubscribe:       {"Subscribe", ToServer, TSubscribed, msg[Subscribe]},
	TSubscribed:      {"Subscribed", ToClient, 0, msg[SessionRef]},
	TResume:          {"Resume", ToServer, TResumed, msg[Uint64]},
	TResumed:         {"Resumed", ToClient, 0, msg[Resumed]},
	TReplay:          {"Replay", ToServer, TReplayed, msg[Replay]},
	TReplayed:        {"Replayed", ToClient, 0, msg[SessionApplied]},
	TDetach:          {"Detach", ToServer, 0, msg[Empty]},
	TModelInfo:       {"ModelInfo", ToServer, TModelInfoR, msg[TenantRef]},
	TModelInfoR:      {"ModelInfoR", ToClient, 0, msg[ModelInfo]},
	TPromote:         {"Promote", ToServer, TPromoted, msg[TenantRef]},
	TPromoted:        {"Promoted", ToClient, 0, msg[Uint64]},
	TRollback:        {"Rollback", ToServer, TRolledBack, msg[TenantRef]},
	TRolledBack:      {"RolledBack", ToClient, 0, msg[Uint64]},
	TShardMap:        {"ShardMap", ToServer, TShardMapR, msg[Uint64]},
	TShardMapR:       {"ShardMapR", ToClient, 0, msg[ShardMap]},
	TFetchModel:      {"FetchModel", ToServer, TOfferModel, msg[TenantRef]},
	TOfferModel:      {"OfferModel", BothWays, TModelAccepted, msg[ModelOffer]},
	TModelAccepted:   {"ModelAccepted", ToClient, 0, msg[ModelAccepted]},
}

// String names the frame type.
func (t Type) String() string {
	if name := frames[t].name; name != "" {
		return name
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// Dir reports which way the frame type flows (0 for an unknown type).
func (t Type) Dir() Dir { return frames[t].dir }

// Reply returns the frame type that answers t on success, 0 when t is
// one-way or is itself a reply.
func (t Type) Reply() Type { return frames[t].reply }

// New returns a zero message value of the Go type that carries frame t, or
// nil for an unknown type and for the hot-path frames (SubmitBatch,
// PredictAt, Prediction), which have hand-written codecs instead.
func New(t Type) Message {
	if mk := frames[t].msg; mk != nil {
		return mk()
	}
	return nil
}

// Code classifies a protocol Error frame.
type Code uint16

// Error codes.
const (
	CodeBadFrame       Code = 1 // malformed or unexpected frame; connection-fatal
	CodeBadVersion     Code = 2 // Hello version mismatch; connection-fatal
	CodeUnknownTenant  Code = 3 // no loadable trace for the tenant name
	CodeUnknownSession Code = 4 // frame names a session this connection never opened; connection-fatal
	// CodeDuplicateSession is reserved: servers up to protocol v1 refused a
	// second open of the same (tenant, tid) on one connection with it. The
	// server now retires the stale slot instead (last open wins — a client
	// that lost an OpenSession response must be able to reopen after
	// resume), so the code is kept only so old captures still decode.
	CodeDuplicateSession Code = 5
	CodeSessionLimit     Code = 6 // server-wide session budget exhausted; retry later
	CodeConnLimit        Code = 7 // server-wide connection budget exhausted; connection-fatal
	CodeDraining         Code = 8 // server is draining; no new sessions
	CodeInternal         Code = 9 // server-side failure opening the session
	// CodeShmSetup reports a refused shared-memory negotiation (bad
	// geometry, unmappable segment, shm unsupported). Non-fatal: the client
	// keeps the socket it negotiated on and falls back to socket transport.
	CodeShmSetup Code = 10
	// CodeRetryLater sheds load: the server refused the request but the
	// connection stays healthy; the Error payload may carry a retry-after
	// hint in milliseconds (RemoteError.RetryAfterMs). Never sent for SubmitBatch.
	CodeRetryLater Code = 11
	// CodeNoResume answers a TResume whose token is unknown or expired.
	// Non-fatal: the client re-opens its sessions fresh on this connection.
	CodeNoResume Code = 12
	// CodeLifecycle refuses a model-lifecycle request: learning is not
	// enabled for the tenant, there is no shadow candidate to promote yet,
	// or no previous generation to roll back to. Non-fatal.
	CodeLifecycle Code = 13
	// CodeWrongShard refuses a session open for a tenant this daemon does
	// not own under the fleet's current shard map. Non-fatal: the client
	// re-fetches the map (TShardMap) and re-routes to the owner; the
	// refusing connection stays usable for tenants this daemon does own.
	CodeWrongShard Code = 14
)

var codeNames = [...]string{
	CodeBadFrame:         "bad frame",
	CodeBadVersion:       "bad version",
	CodeUnknownTenant:    "unknown tenant",
	CodeUnknownSession:   "unknown session",
	CodeDuplicateSession: "duplicate session",
	CodeSessionLimit:     "session limit",
	CodeConnLimit:        "connection limit",
	CodeDraining:         "draining",
	CodeInternal:         "internal",
	CodeShmSetup:         "shm setup refused",
	CodeRetryLater:       "retry later",
	CodeNoResume:         "no resumable state",
	CodeLifecycle:        "lifecycle refused",
	CodeWrongShard:       "wrong shard",
}

// String names the error code.
func (c Code) String() string {
	if int(c) < len(codeNames) && codeNames[c] != "" {
		return codeNames[c]
	}
	return fmt.Sprintf("Code(%d)", uint16(c))
}

// HelloFlagResume asks the server for a resume token: if granted, the
// HelloOK response carries a nonzero token the client can present in a
// TResume frame on a future connection to adopt its parked sessions.
const HelloFlagResume uint8 = 1 << 0

// OpenSession flag bits.
const (
	// FlagStartAtBeginning seeds the session's predictor at the start of
	// the reference trace (Thread.StartAtBeginning) before any submission.
	FlagStartAtBeginning uint8 = 1 << 0
	// FlagWantEvents asks the server to include the tenant's event
	// descriptor table in the SessionOpened response. Clients set it once
	// per tenant and intern locally from then on.
	FlagWantEvents uint8 = 1 << 1
)

// Oracle degradation states on the wire (match core.State values).
const (
	StateHealthy     uint8 = 0
	StateDegraded    uint8 = 1
	StateQuarantined uint8 = 2
)

// Model lifecycle states on the wire (ModelInfo.State).
const (
	ModelFrozen   uint8 = 0
	ModelLearning uint8 = 1
	ModelWatching uint8 = 2
)

// Framing errors. ReadFrame returns io.EOF only for a connection closed
// cleanly between frames; a frame torn mid-body comes back as
// io.ErrUnexpectedEOF.
var (
	ErrFrameTooLarge = errors.New("wire: frame exceeds MaxFrame")
	ErrEmptyFrame    = errors.New("wire: zero-length frame")
	ErrMalformed     = errors.New("wire: malformed frame payload")
	ErrBadMagic      = errors.New("wire: bad hello magic")
)

// ReadFrame reads one frame from br, reusing *buf as the body buffer
// (growing it at most to MaxFrame). The returned payload aliases *buf and
// is valid until the next ReadFrame with the same buffer.
// pythia:hotpath — one call per request on the serving path.
func ReadFrame(br *bufio.Reader, buf *[]byte) (Type, []byte, error) {
	var hdr [4]byte
	// pythia:allow hotpath-alloc — a pointer stored in an interface is not
	// boxed, so passing br as an io.Reader does not allocate; the decode
	// path is pinned at 0 allocs/op by TestDecodeZeroAllocOnHotPath.
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 {
		return 0, nil, ErrEmptyFrame
	}
	if n > MaxFrame {
		return 0, nil, ErrFrameTooLarge
	}
	if cap(*buf) < int(n) {
		*buf = make([]byte, n)
	}
	body := (*buf)[:n]
	// pythia:allow hotpath-alloc — br is a pointer: no boxing, as above.
	if _, err := io.ReadFull(br, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	return Type(body[0]), body[1:], nil
}

// WriteFrame writes one frame (header, type byte, payload) to bw. The
// caller flushes; batching consecutive responses into one flush is the
// server's write-batching discipline.
// pythia:hotpath — one call per response on the serving path.
func WriteFrame(bw *bufio.Writer, t Type, payload []byte) error {
	if len(payload)+1 > MaxFrame {
		return ErrFrameTooLarge
	}
	// The header goes through WriteByte so no short-lived buffer escapes
	// into the writer: this function must not allocate.
	n := uint32(len(payload) + 1)
	if err := bw.WriteByte(byte(n >> 24)); err != nil {
		return err
	}
	if err := bw.WriteByte(byte(n >> 16)); err != nil {
		return err
	}
	if err := bw.WriteByte(byte(n >> 8)); err != nil {
		return err
	}
	if err := bw.WriteByte(byte(n)); err != nil {
		return err
	}
	if err := bw.WriteByte(byte(t)); err != nil {
		return err
	}
	_, err := bw.Write(payload)
	return err
}

// ---------------------------------------------------------------------------
// Field primitives: append-style writers and the latched-bounds cursor.

func appendU16(buf []byte, v uint16) []byte { return append(buf, byte(v>>8), byte(v)) }

func appendU32(buf []byte, v uint32) []byte {
	return append(buf, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func appendU64(buf []byte, v uint64) []byte {
	return append(buf, byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// appendString encodes a uint16 length-prefixed string, truncating at 64 KiB
// (only free-form diagnostics — causes, messages — can get near that).
func appendString(buf []byte, s string) []byte {
	if len(s) > math.MaxUint16 {
		s = s[:math.MaxUint16]
	}
	buf = appendU16(buf, uint16(len(s)))
	return append(buf, s...)
}

// cursor walks a payload; ok latches false on the first out-of-bounds read.
type cursor struct {
	p   []byte
	off int
	ok  bool
}

func newCursor(p []byte) cursor { return cursor{p: p, ok: true} }

// take returns the next n payload bytes. Past the end it latches ok false
// and returns zero bytes instead, so the fixed-width readers need no
// branch of their own; what they read then is discarded with the frame.
func (c *cursor) take(n int) []byte {
	if !c.ok || n > len(c.p)-c.off {
		c.ok = false
		return zeros[:min(n, len(zeros))]
	}
	b := c.p[c.off : c.off+n]
	c.off += n
	return b
}

var zeros [8]byte

func (c *cursor) u8() byte    { return c.take(1)[0] }
func (c *cursor) u16() uint16 { return binary.BigEndian.Uint16(c.take(2)) }
func (c *cursor) u32() uint32 { return binary.BigEndian.Uint32(c.take(4)) }
func (c *cursor) u64() uint64 { return binary.BigEndian.Uint64(c.take(8)) }
func (c *cursor) str() string { return string(c.take(int(c.u16()))) }

// done reports whether the whole payload was consumed cleanly. Trailing
// bytes are malformed: they would mask version-skewed encoders.
func (c *cursor) done() bool { return c.ok && c.off == len(c.p) }

func malformed(frame string) error { return fmt.Errorf("%w: %s", ErrMalformed, frame) }

// ---------------------------------------------------------------------------
// The two-way field codec.

// Message is the payload of one cold-path frame: a struct whose walk method
// visits its fields in wire order. Which frame types a message type carries
// is the frame table's business, so frames with the same layout share one
// Go type.
type Message interface {
	walk(c *codec)
}

// codec runs a message's field walk in one of two directions: encoding, each
// visited field is appended to buf; decoding, each is read through the
// cursor, whose latch (and err) settle the outcome once the walk is over.
type codec struct {
	enc bool
	buf []byte
	cursor
	err error // a decoded value the protocol refuses (bad magic)
}

// Append encodes m onto buf and returns the extended buffer.
func Append(buf []byte, m Message) []byte {
	c := codec{enc: true, buf: buf}
	m.walk(&c)
	return c.buf
}

// Decode reads a frame-t payload into m, which must be a zero value of the
// type New(t) returns. Every length field is checked against the bytes
// present and any shortfall or trailing byte fails with ErrMalformed
// (wrapped with the frame name).
func Decode(t Type, p []byte, m Message) error {
	c := codec{cursor: newCursor(p)}
	m.walk(&c)
	if !c.done() {
		return malformed(t.String())
	}
	return c.err
}

func (c *codec) u8(v *uint8) {
	if c.enc {
		c.buf = append(c.buf, *v)
	} else {
		*v = c.cursor.u8()
	}
}

func (c *codec) u16(v *uint16) {
	if c.enc {
		c.buf = appendU16(c.buf, *v)
	} else {
		*v = c.cursor.u16()
	}
}

func (c *codec) u32(v *uint32) {
	if c.enc {
		c.buf = appendU32(c.buf, *v)
	} else {
		*v = c.cursor.u32()
	}
}

func (c *codec) u64(v *uint64) {
	if c.enc {
		c.buf = appendU64(c.buf, *v)
	} else {
		*v = c.cursor.u64()
	}
}

func (c *codec) str(v *string) {
	if c.enc {
		c.buf = appendString(c.buf, *v)
	} else {
		*v = c.cursor.str()
	}
}

func (c *codec) i32(v *int32) {
	u := uint32(*v)
	c.u32(&u)
	*v = int32(u)
}

func (c *codec) i64(v *int64) {
	u := uint64(*v)
	c.u64(&u)
	*v = int64(u)
}

func (c *codec) bool(v *bool) {
	var b uint8
	if *v {
		b = 1
	}
	c.u8(&b)
	*v = b != 0
}

// prediction carries one prediction's fixed 24-byte layout.
func (c *codec) prediction(pr *predictor.Prediction) {
	if c.enc {
		c.buf = appendPredictionBody(c.buf, *pr)
	} else {
		*pr = parsePredictionBody(&c.cursor)
	}
}

// more reports whether an optional trailing field group is on the wire:
// encoding, that is the caller's choice; decoding, it is there if bytes
// remain. Hello, HelloOK and Error grew their tails this way, so a peer
// that predates a tail still decodes.
func (c *codec) more(present bool) bool {
	if c.enc {
		return present
	}
	return c.ok && c.off < len(c.p)
}

// count carries an element count, width bytes wide (2 or 4), and is the one
// place a count read off the wire becomes trusted: decoding, it is refused —
// latching the cursor — unless it is at most max and the bytes still unread
// could hold that many elements of at least elemMin bytes each. Everything
// in this package that sizes a slice from the wire sizes it from here.
func (c *codec) count(n, width, elemMin, max int) int {
	n16, n32 := uint16(n), uint32(n)
	if width == 2 {
		c.u16(&n16)
		n = int(n16)
	} else {
		c.u32(&n32)
		n = int(n32)
	}
	if !c.enc && (!c.ok || n < 0 || n > max || n > (len(c.p)-c.off)/elemMin) {
		c.ok = false
		return 0
	}
	return n
}

// list carries a counted sequence: its count (see count), then each element
// through each. A decoded empty sequence is nil.
func list[T any](c *codec, s *[]T, width, elemMin, max int, each func(*codec, *T)) {
	n := c.count(len(*s), width, elemMin, max)
	if !c.enc {
		*s = nil
		if n > 0 {
			*s = make([]T, n)
		}
	}
	for i := range *s {
		each(c, &(*s)[i])
	}
}

// blob carries a uint32 length-prefixed byte string. Decoded, it aliases
// the payload: no copy, valid until the frame buffer is reused.
func (c *codec) blob(b *[]byte, max int) {
	n := c.count(len(*b), 4, 1, max)
	if c.enc {
		c.buf = append(c.buf, *b...)
		return
	}
	*b = c.p[c.off : c.off+n]
	c.off += n
}

// ---------------------------------------------------------------------------
// Messages. Field order in each walk is the wire order.

// Hello opens the conversation: magic, version, flags. The flags byte is
// optional on the wire (absent from version-1 clients that predate resume).
type Hello struct {
	Version uint16
	Flags   uint8 // HelloFlag bits
}

func (m *Hello) walk(c *codec) {
	magic := helloMagic
	c.u32(&magic)
	c.u16(&m.Version)
	if c.more(true) {
		c.u8(&m.Flags)
	}
	if magic != helloMagic {
		c.err = ErrBadMagic
	}
}

// HelloOK answers Hello. Token is zero when the server granted no resume
// capability (the short, version-only form); WindowMs is how long a dropped
// connection's sessions stay parked.
type HelloOK struct {
	Version  uint16
	Token    uint64
	WindowMs uint32
}

func (m *HelloOK) walk(c *codec) {
	c.u16(&m.Version)
	if c.more(m.Token != 0) {
		c.u64(&m.Token)
		c.u32(&m.WindowMs)
	}
}

// RemoteError is an Error frame: the server's answer to a request it
// refuses, and the typed error the exchange path returns for one.
type RemoteError struct {
	Code Code
	Msg  string
	// RetryAfterMs is the server's backoff hint on CodeRetryLater
	// responses (0, and absent from the wire, when the server sent none).
	RetryAfterMs uint32
}

func (e *RemoteError) Error() string { return fmt.Sprintf("pythiad: %s: %s", e.Code, e.Msg) }

func (e *RemoteError) walk(c *codec) {
	c.u16((*uint16)(&e.Code))
	c.str(&e.Msg)
	if c.more(e.RetryAfterMs != 0) {
		c.u32(&e.RetryAfterMs)
	}
}

// OpenSession asks for a (tenant, thread) session; TID < 0 opens a meta
// session that only pins the tenant and fetches its event table.
type OpenSession struct {
	TID    int32
	Flags  uint8
	Tenant string
}

func (m *OpenSession) walk(c *codec) {
	c.i32(&m.TID)
	c.u8(&m.Flags)
	c.str(&m.Tenant)
}

// SessionOpened answers OpenSession. Events is nil unless the request
// carried FlagWantEvents.
type SessionOpened struct {
	Session      uint32
	HasPredictor bool
	State        uint8
	Events       []string
}

func (m *SessionOpened) walk(c *codec) {
	c.u32(&m.Session)
	c.bool(&m.HasPredictor)
	c.u8(&m.State)
	hasTable := m.Events != nil
	c.bool(&hasTable)
	if hasTable {
		// Each descriptor takes at least its 2-byte length prefix.
		list(c, &m.Events, 4, 2, MaxFrame, (*codec).str)
		if m.Events == nil {
			m.Events = []string{}
		}
	}
}

// SessionRef names one session: CloseSession, SessionClosed, Subscribed.
type SessionRef struct{ Session uint32 }

func (m *SessionRef) walk(c *codec) { c.u32(&m.Session) }

// SessionArg is a session and one 32-bit argument: PredictSequence (the
// count, an int32 on the wire), ShmBind and ShmBound (the ring index).
type SessionArg struct{ Session, Arg uint32 }

func (m *SessionArg) walk(c *codec) {
	c.u32(&m.Session)
	c.u32(&m.Arg)
}

// TenantRef names one tenant ("" = the whole server, for Health): Health,
// ModelInfo, Promote, Rollback, FetchModel.
type TenantRef struct{ Tenant string }

func (m *TenantRef) walk(c *codec) { c.str(&m.Tenant) }

// Uint64 is one 64-bit value: Resume (the token), Promoted and RolledBack
// (the minted generation), ShardMap (the caller's cached epoch).
type Uint64 struct{ V uint64 }

func (m *Uint64) walk(c *codec) { c.u64(&m.V) }

// Empty is the payload of Detach.
type Empty struct{}

func (*Empty) walk(*codec) {}

// Predictions answers PredictSequence.
type Predictions struct{ Preds []predictor.Prediction }

func (m *Predictions) walk(c *codec) {
	list(c, &m.Preds, 4, 24, MaxPredictions, (*codec).prediction)
}

// HealthInfo answers Health: the aggregate degradation state of one
// tenant's live oracles (or of the whole server).
type HealthInfo struct {
	State              uint8
	Oracles            uint32
	PanicsContained    int64
	BudgetBreaches     int64
	QuarantinedThreads int64
	CheckpointFailures int64
	Promotions         int64
	Rollbacks          int64
	Cause              string
}

func (m *HealthInfo) walk(c *codec) {
	c.u8(&m.State)
	c.u32(&m.Oracles)
	c.i64(&m.PanicsContained)
	c.i64(&m.BudgetBreaches)
	c.i64(&m.QuarantinedThreads)
	c.i64(&m.CheckpointFailures)
	c.i64(&m.Promotions)
	c.i64(&m.Rollbacks)
	c.str(&m.Cause)
}

// ShmSetup offers a shared-memory segment (transport tier 3): the ring
// geometry and the segment file carrying it. SegSize is redundant with the
// geometry (the server recomputes and compares) — a cheap cross-check that
// the two sides agree on layout arithmetic before either maps a byte.
// Everything in it is untrusted input on the receiving side.
type ShmSetup struct {
	Rings   uint32
	Slots   uint32
	PredCap uint32
	SegSize uint64
	Path    string
}

func (m *ShmSetup) walk(c *codec) {
	c.u32(&m.Rings)
	c.u32(&m.Slots)
	c.u32(&m.PredCap)
	c.u64(&m.SegSize)
	c.str(&m.Path)
}

// ShmSetupOK answers ShmSetup with the ring count the server mapped.
type ShmSetupOK struct{ Rings uint32 }

func (m *ShmSetupOK) walk(c *codec) { c.u32(&m.Rings) }

// Subscribe asks the server to keep the session's ring prediction slot
// fresh: after every `Every` consumed events it republishes
// PredictSequence(Horizon) into the seqlock'd slot, so a co-located client
// reads the latest predictions without a round trip.
type Subscribe struct {
	Session uint32
	Horizon uint32 // predictions per refresh (clamped to the ring's PredCap)
	Every   uint32 // refresh cadence in consumed events (0 = every decode pass)
}

func (m *Subscribe) walk(c *codec) {
	c.u32(&m.Session)
	c.u32(&m.Horizon)
	c.u32(&m.Every)
}

// SessionApplied reports a session's applied event counter — the number of
// events the server has fed into it since it was opened. It is the Replayed
// payload and one entry of Resumed.
type SessionApplied struct {
	Session uint32
	Applied uint64
}

func (m *SessionApplied) walk(c *codec) {
	c.u32(&m.Session)
	c.u64(&m.Applied)
}

// Resumed answers Resume: the re-attached sessions (ids unchanged from the
// parked connection), so the client can replay only its unacked tail.
type Resumed struct{ Sessions []SessionApplied }

func (m *Resumed) walk(c *codec) {
	list(c, &m.Sessions, 4, 12, MaxFrame, func(c *codec, s *SessionApplied) { s.walk(c) })
}

// Replay re-delivers events after a resume: IDs are the session's events
// with sequence numbers Base, Base+1, … (1-based per server session); the
// server drops anything at or below its applied counter.
type Replay struct {
	Session uint32
	Base    uint64
	IDs     []int32
}

func (m *Replay) walk(c *codec) {
	c.u32(&m.Session)
	c.u64(&m.Base)
	list(c, &m.IDs, 4, 4, MaxFrame, (*codec).i32)
}

// ModelInfo answers a ModelInfo request (frame ModelInfoR): one tenant's
// model-lifecycle snapshot.
type ModelInfo struct {
	// Enabled reports whether the tenant's oracle learns online.
	Enabled bool
	// State is ModelFrozen, ModelLearning or ModelWatching.
	State uint8
	// ServingGeneration is the generation number of the serving model.
	ServingGeneration uint64
	// Promotions, Rollbacks and ShadowEpochs are the lifetime counters.
	Promotions   uint64
	Rollbacks    uint64
	ShadowEpochs uint64
	// Retained lists the generation numbers held in memory, serving first.
	Retained []uint64
}

func (m *ModelInfo) walk(c *codec) {
	c.bool(&m.Enabled)
	c.u8(&m.State)
	c.u64(&m.ServingGeneration)
	c.u64(&m.Promotions)
	c.u64(&m.Rollbacks)
	c.u64(&m.ShadowEpochs)
	list(c, &m.Retained, 2, 8, math.MaxUint16, (*codec).u64)
}

// ShardMap answers a ShardMap request (frame ShardMapR): one epoch of the
// fleet's tenant→daemon assignment inputs. Daemons is empty on a daemon
// that is not running in cluster mode.
type ShardMap struct {
	// Epoch versions the assignment; higher epochs win fleet-wide.
	Epoch uint64
	// Replicas is how many warm replicas (beyond the owner) each tenant
	// keeps.
	Replicas uint8
	// Daemons lists every fleet member's advertised address.
	Daemons []string
}

func (m *ShardMap) walk(c *codec) {
	c.u64(&m.Epoch)
	c.u8(&m.Replicas)
	list(c, &m.Daemons, 2, 2, MaxDaemons, (*codec).str)
}

// ModelOffer is an OfferModel payload: one tenant's newest committed model
// generation in transit between daemons (either the response to a
// FetchModel pull or an unsolicited migration/replication push).
type ModelOffer struct {
	// Tenant names the model's tenant.
	Tenant string
	// Generation is the checkpoint generation the payload was committed as;
	// receivers resolve conflicts last-generation-wins without decoding.
	Generation uint64
	// Source is the advertised address of the daemon the model came from
	// (recorded as the installed generation's ReplicatedFrom provenance).
	Source string
	// Payload is the tracefile serialization of the model. Decoded, it
	// aliases the frame read buffer: use or copy it before the next read.
	Payload []byte
}

func (m *ModelOffer) walk(c *codec) {
	c.str(&m.Tenant)
	c.u64(&m.Generation)
	c.str(&m.Source)
	c.blob(&m.Payload, MaxModelBytes)
}

// ModelAccepted is the last-generation-wins verdict on an offered model:
// whether it was installed, and the generation the receiver now holds (its
// own, newer one on a rejection).
type ModelAccepted struct {
	Accepted bool
	HaveGen  uint64
}

func (m *ModelAccepted) walk(c *codec) {
	c.bool(&m.Accepted)
	c.u64(&m.HaveGen)
}

// ---------------------------------------------------------------------------
// The hot path, written out by hand: these run per event or per query and
// must not allocate, which a walk through the Message interface would.

// AppendSubmitBatch encodes a SubmitBatch payload.
// pythia:hotpath — per-flush on the client submit path.
func AppendSubmitBatch(buf []byte, session uint32, ids []int32) []byte {
	buf = appendU32(buf, session)
	buf = appendU32(buf, uint32(len(ids)))
	for _, id := range ids {
		buf = appendU32(buf, uint32(id))
	}
	return buf
}

// AppendPredictAt encodes a PredictAt payload.
// pythia:hotpath — per-query on the client predict path.
func AppendPredictAt(buf []byte, session uint32, distance int) []byte {
	buf = appendU32(buf, session)
	return appendU32(buf, uint32(distance))
}

// appendPredictionBody encodes one prediction's fixed 24-byte layout.
func appendPredictionBody(buf []byte, pr predictor.Prediction) []byte {
	buf = appendU32(buf, uint32(pr.EventID))
	buf = appendU32(buf, uint32(pr.Distance))
	buf = appendU64(buf, math.Float64bits(pr.Probability))
	return appendU64(buf, math.Float64bits(pr.ExpectedNs))
}

// AppendPrediction encodes a Prediction response payload. The float fields
// cross the wire as raw IEEE-754 bits, so a remote prediction is
// bit-identical to the in-process one.
// pythia:hotpath — per-query on the serving path.
func AppendPrediction(buf []byte, pr predictor.Prediction, ok bool) []byte {
	okb := byte(0)
	if ok {
		okb = 1
	}
	buf = append(buf, okb)
	return appendPredictionBody(buf, pr)
}

var (
	errMalformedBatch     = fmt.Errorf("%w: SubmitBatch", ErrMalformed)
	errMalformedPredictAt = fmt.Errorf("%w: PredictAt", ErrMalformed)
)

// Batch is a decoded SubmitBatch id sequence: a view over the frame payload
// (no copy, no allocation).
type Batch struct{ p []byte }

// Len returns the number of ids in the batch.
func (b Batch) Len() int { return len(b.p) / 4 }

// At returns the i-th event id.
// pythia:hotpath — per-event on the serving path.
func (b Batch) At(i int) int32 { return int32(binary.BigEndian.Uint32(b.p[i*4:])) }

// ParseSubmitBatch decodes a TSubmitBatch payload into a zero-copy Batch.
// pythia:hotpath — per-batch on the serving path.
func ParseSubmitBatch(p []byte) (session uint32, b Batch, err error) {
	if len(p) < 8 {
		return 0, Batch{}, errMalformedBatch
	}
	session = binary.BigEndian.Uint32(p)
	n := binary.BigEndian.Uint32(p[4:])
	if uint64(n)*4 != uint64(len(p)-8) {
		return 0, Batch{}, errMalformedBatch
	}
	return session, Batch{p: p[8:]}, nil
}

// ParsePredictAt decodes a TPredictAt payload.
// pythia:hotpath — per-query on the serving path.
func ParsePredictAt(p []byte) (session uint32, distance int, err error) {
	if len(p) != 8 {
		return 0, 0, errMalformedPredictAt
	}
	session = binary.BigEndian.Uint32(p)
	distance = int(int32(binary.BigEndian.Uint32(p[4:])))
	return session, distance, nil
}

// parsePredictionBody decodes one prediction's fixed 24-byte layout.
func parsePredictionBody(c *cursor) predictor.Prediction {
	var pr predictor.Prediction
	pr.EventID = int32(c.u32())
	pr.Distance = int(int32(c.u32()))
	pr.Probability = math.Float64frombits(c.u64())
	pr.ExpectedNs = math.Float64frombits(c.u64())
	return pr
}

// ParsePrediction decodes a TPrediction payload.
func ParsePrediction(p []byte) (pr predictor.Prediction, ok bool, err error) {
	c := newCursor(p)
	okb := c.u8()
	pr = parsePredictionBody(&c)
	if !c.done() {
		return predictor.Prediction{}, false, malformed("Prediction")
	}
	return pr, okb != 0, nil
}

// Value-style shorthands over the codec for callers that build or read one
// payload outside an exchange (the benchmark's frame probes, protocol tests).

// AppendHello encodes a Hello payload for this build's Version.
func AppendHello(buf []byte, flags uint8) []byte {
	return Append(buf, &Hello{Version: Version, Flags: flags})
}

// AppendOpenSession encodes an OpenSession payload.
func AppendOpenSession(buf []byte, o OpenSession) []byte { return Append(buf, &o) }

// ParseSessionOpened decodes a TSessionOpened payload.
func ParseSessionOpened(p []byte) (SessionOpened, error) {
	var so SessionOpened
	err := Decode(TSessionOpened, p, &so)
	return so, err
}

// ---------------------------------------------------------------------------
// The exchange path: the one copy of handshake and request/reply.

// Conn is one end of a framed connection: the socket, its buffered halves
// and the two scratch buffers (frame body in, payload out) reused across
// frames. A Conn is not safe for concurrent use.
type Conn struct {
	NC  net.Conn
	BR  *bufio.Reader
	BW  *bufio.Writer
	In  []byte // frame read buffer; payloads returned by RoundTrip alias it
	Out []byte // payload encode buffer
}

// NewConn wraps an established connection.
func NewConn(nc net.Conn) *Conn {
	return &Conn{
		NC:  nc,
		BR:  bufio.NewReader(nc),
		BW:  bufio.NewWriter(nc),
		In:  make([]byte, 0, 4096),
		Out: make([]byte, 0, 1024),
	}
}

// Send encodes m and writes it as one frame of type t. It does not flush.
func (c *Conn) Send(t Type, m Message) error {
	c.Out = Append(c.Out[:0], m)
	return WriteFrame(c.BW, t, c.Out)
}

// RoundTrip writes one request frame, flushes, and reads the answer, all
// within timeout. An Error frame comes back as a *RemoteError — the
// connection stays usable, the Error was the reply — and any frame other
// than the reply type t's table row names is a protocol failure. The
// returned payload aliases c.In.
func (c *Conn) RoundTrip(t Type, payload []byte, timeout time.Duration) ([]byte, error) {
	if err := c.NC.SetDeadline(time.Now().Add(timeout)); err != nil {
		return nil, err
	}
	if err := WriteFrame(c.BW, t, payload); err != nil {
		return nil, err
	}
	if err := c.BW.Flush(); err != nil {
		return nil, err
	}
	rt, p, err := ReadFrame(c.BR, &c.In)
	if err != nil {
		return nil, err
	}
	if rt == TError {
		re := new(RemoteError)
		if err := Decode(TError, p, re); err != nil {
			return nil, err
		}
		return nil, re
	}
	if rt != t.Reply() {
		return nil, fmt.Errorf("wire: %s answered with %s, want %s", t, rt, t.Reply())
	}
	return p, nil
}

// Exchange is RoundTrip for message values: it sends req as a frame of type
// t and decodes the reply into resp.
func (c *Conn) Exchange(t Type, req, resp Message, timeout time.Duration) error {
	c.Out = Append(c.Out[:0], req)
	p, err := c.RoundTrip(t, c.Out, timeout)
	if err != nil {
		return err
	}
	return Decode(t.Reply(), p, resp)
}

// Handshake performs the Hello exchange on a fresh connection and checks
// the server's protocol version. A server that refuses the connection
// outright (connection limit, draining) surfaces as a *RemoteError.
func (c *Conn) Handshake(flags uint8, timeout time.Duration) (HelloOK, error) {
	var ok HelloOK
	if err := c.Exchange(THello, &Hello{Version: Version, Flags: flags}, &ok, timeout); err != nil {
		return ok, fmt.Errorf("wire: handshake: %w", err)
	}
	if ok.Version != Version {
		return ok, fmt.Errorf("wire: server speaks protocol version %d, this side version %d", ok.Version, Version)
	}
	return ok, c.NC.SetDeadline(time.Time{})
}
