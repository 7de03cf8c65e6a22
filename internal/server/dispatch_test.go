package server

import (
	"errors"
	"testing"

	"repro/internal/wire"
)

// TestHandlerTableMatchesFrameTable holds the server's cold-path dispatch
// table against wire's frame table: every request frame the table carries a
// message value for has a handler row, that row's Go type is the table's,
// and nothing that only flows back to the client has one.
func TestHandlerTableMatchesFrameTable(t *testing.T) {
	dir := t.TempDir()
	synthTrace(t, dir, "synth", 4)
	for typ := wire.THello; typ <= wire.TModelAccepted; typ++ {
		h := handlers[typ]
		request := typ.Dir() != wire.ToClient && wire.New(typ) != nil && typ != wire.THello
		if (h != nil) != request {
			t.Errorf("%s (direction %d): handler row present = %v, want %v", typ, typ.Dir(), h != nil, request)
		}
		if h == nil {
			continue
		}
		// An empty payload is valid only for the empty frames; everywhere
		// else it must be refused as malformed — by the row's decode step,
		// which it only reaches when the row and the table agree on the type.
		c := newConn(New(Config{TraceDir: dir}), nopConn{})
		err := h(c, typ, nil)
		var pe *protoErr
		if errors.As(err, &pe) && pe.code == wire.CodeInternal {
			t.Errorf("%s: %v", typ, err)
		}
		if _, empty := wire.New(typ).(*wire.Empty); !empty && (pe == nil || pe.code != wire.CodeBadFrame) {
			t.Errorf("%s with an empty payload: err = %v, want a CodeBadFrame refusal", typ, err)
		}
	}
	// A frame with no row — a reply type, a second Hello, an unknown
	// number — is a fatal bad frame.
	c := newConn(New(Config{TraceDir: dir}), nopConn{})
	for _, typ := range []wire.Type{wire.THello, wire.TPrediction, wire.TModelAccepted, 0, 200} {
		var pe *protoErr
		if err := c.handleFrame(typ, nil); !errors.As(err, &pe) || pe.code != wire.CodeBadFrame || !pe.fatal {
			t.Errorf("%s: err = %v, want a fatal CodeBadFrame", typ, err)
		}
	}
}

// TestSessionSlotsAreReused pins the slot-table bound: closing and
// re-opening sessions on one connection, or restarting them by reopening
// without a close (last open wins, as the client's StartAtBeginning does),
// however often, leaves the table at the high-water mark of concurrently
// open sessions — and an id that outlived its session is refused, fatally,
// even after its slot has a new tenant.
func TestSessionSlotsAreReused(t *testing.T) {
	dir := t.TempDir()
	synthTrace(t, dir, "synth", 4)
	srv := New(Config{TraceDir: dir})
	c := newConn(srv, nopConn{})
	open := func(tid int32) uint32 {
		t.Helper()
		reply, err := c.openSession(&wire.OpenSession{TID: tid, Flags: wire.FlagStartAtBeginning, Tenant: "synth"})
		if err != nil {
			t.Fatalf("opening thread %d: %v", tid, err)
		}
		return reply.(*wire.SessionOpened).Session
	}
	closeSession := func(sid uint32) error {
		_, err := c.closeSession(&wire.SessionRef{Session: sid})
		return err
	}

	// High-water mark: the meta session and three threads.
	open(-1)
	sids := []uint32{open(0), open(1), open(2)}
	const highWater = 4
	first := sids[0]
	seen := map[uint32]bool{first: true}
	const cycles = 20000
	for i := 0; i < cycles; i++ {
		tid := int32(i % 3)
		// Even cycles close and reopen; odd ones are restarts, a reopen
		// with no close.
		if i%2 == 0 {
			if err := closeSession(sids[tid]); err != nil {
				t.Fatalf("cycle %d: closing %#x: %v", i, sids[tid], err)
			}
		}
		sids[tid] = open(tid)
		if tid == 0 {
			if seen[sids[0]] {
				t.Fatalf("cycle %d: session id %#x handed out twice", i, sids[0])
			}
			seen[sids[0]] = true
		}
	}
	if len(c.sessions) != highWater || len(c.free) != 0 {
		t.Fatalf("after %d close/re-open and restart cycles the slot table holds %d slots (%d free), want the high-water mark %d",
			cycles, len(c.sessions), len(c.free), highWater)
	}
	if got := srv.Sessions(); got != highWater {
		t.Fatalf("server counts %d open sessions, want %d", got, highWater)
	}

	// The first id thread 0 ever had names a slot that is open again, under
	// a newer id: every frame kind must still refuse the stale one.
	stale := []struct {
		name string
		err  error
	}{
		{"Submit", c.handleFrame(wire.TSubmit, wire.AppendSubmit(nil, first, 0))},
		{"SubmitBatch", c.handleFrame(wire.TSubmitBatch, wire.AppendSubmitBatch(nil, first, []int32{0}))},
		{"PredictAt", c.handleFrame(wire.TPredictAt, wire.AppendPredictAt(nil, first, 1))},
		{"PredictSequence", c.handleFrame(wire.TPredictSequence, wire.AppendPredictSequence(nil, first, 1))},
		{"CloseSession", closeSession(first)},
	}
	for _, s := range stale {
		var pe *protoErr
		if !errors.As(s.err, &pe) || pe.code != wire.CodeUnknownSession || !pe.fatal {
			t.Errorf("%s on a retired session id: err = %v, want a fatal CodeUnknownSession", s.name, s.err)
		}
	}
	// The live ids still work.
	if err := c.handleFrame(wire.TPredictAt, wire.AppendPredictAt(nil, sids[0], 1)); err != nil {
		t.Fatalf("PredictAt on the live session: %v", err)
	}
}

// TestAdmissionLimitsShedWithRetryHint turns on the two fail-open
// protections no other test enables. Each must refuse exactly the work it
// names — with the non-fatal CodeRetryLater and a retry-after hint — while
// Submit and PredictAt on the sessions already open keep being served.
func TestAdmissionLimitsShedWithRetryHint(t *testing.T) {
	cases := []struct {
		name    string
		cfg     Config
		refused func(c *rawConn, sid uint32) // sends the request the limit must refuse
	}{
		{
			name: "MaxSessionsPerTenant",
			cfg:  Config{MaxSessionsPerTenant: 2}, // the meta session and one thread
			refused: func(c *rawConn, _ uint32) {
				c.sendMsg(wire.TOpenSession, &wire.OpenSession{TID: 1, Tenant: "synth"})
			},
		},
		{
			name: "ShedSessions",
			cfg:  Config{ShedSessions: 1}, // two sessions open: over the mark
			refused: func(c *rawConn, sid uint32) {
				c.send(wire.TPredictSequence, wire.AppendPredictSequence(nil, sid, 4))
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			names := synthTrace(t, dir, "synth", 64)
			tc.cfg.TraceDir = dir
			_, addr := startServer(t, tc.cfg)
			c := dialRaw(t, addr)
			reg := regFor(t, c, "synth")
			sid := c.openSession("synth", 0, wire.FlagStartAtBeginning)

			for round := 0; round < 3; round++ {
				tc.refused(c, sid)
				var re wire.RemoteError
				c.recvMsg(wire.TError, &re)
				if re.Code != wire.CodeRetryLater || re.RetryAfterMs == 0 {
					t.Fatalf("round %d: refusal = %+v, want CodeRetryLater with a retry-after hint", round, re)
				}
				// The connection and the open session are untouched.
				for _, name := range names {
					c.send(wire.TSubmit, wire.AppendSubmit(nil, sid, int32(reg[name])))
				}
				c.send(wire.TPredictAt, wire.AppendPredictAt(nil, sid, 1))
				typ, payload := c.recv()
				if typ != wire.TPrediction {
					t.Fatalf("round %d: PredictAt answered with %s", round, typ)
				}
				if pr, ok, err := wire.ParsePrediction(payload); err != nil || !ok || pr.EventID != int32(reg[names[0]]) {
					t.Fatalf("round %d: prediction = %+v ok=%v err=%v, want %s next", round, pr, ok, err, names[0])
				}
			}
		})
	}
}
