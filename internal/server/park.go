package server

import (
	"crypto/rand"
	"encoding/binary"
	"time"

	"repro/internal/wire"
)

// Session resume. A connection that negotiated a resume token does not
// release its sessions when it dies — they are parked in the server's park
// table for the resume window, still counted against every budget. A fresh
// connection presenting the token as its first post-handshake frame adopts
// them, session ids intact, and learns each session's applied event counter
// so it can replay exactly its unacked tail; the replay dedup in
// conn.replay makes redelivery idempotent. Unresumed parks expire on a
// timer and release everything with the same accounting as a plain
// teardown.

// parkedConn is one dead connection's session state awaiting resume.
type parkedConn struct {
	sessTable
	timer *time.Timer
}

// newResumeToken draws a nonzero random 64-bit token. Tokens gate session
// adoption, so they come from crypto/rand — a guessable token would let one
// tenant's client adopt another's sessions.
func newResumeToken() (uint64, error) {
	var b [8]byte
	for {
		if _, err := rand.Read(b[:]); err != nil {
			return 0, err
		}
		if t := binary.BigEndian.Uint64(b[:]); t != 0 {
			return t, nil
		}
	}
}

// tryPark moves a dying connection's sessions into the park table. It
// refuses (caller releases instead) when the server is draining, nothing is
// open, or the park table is full.
func (s *Server) tryPark(c *conn) bool {
	open := 0
	for i := range c.sessions {
		if c.sessions[i].open {
			open++
		}
	}
	if open == 0 {
		return false
	}
	s.parkMu.Lock()
	if s.draining.Load() || len(s.parked) >= maxParked {
		s.parkMu.Unlock()
		return false
	}
	token := c.resumeToken
	p := &parkedConn{sessTable: c.sessTable}
	p.timer = time.AfterFunc(s.cfg.ResumeWindow, func() { s.expirePark(token) })
	s.parked[token] = p
	s.parkMu.Unlock()
	return true
}

// unpark removes and returns the parked state for token, or nil. The expiry
// timer is stopped; if it already fired, the table entry is gone and the
// caller sees nil — expiry and adoption can never both release.
func (s *Server) unpark(token uint64) *parkedConn {
	s.parkMu.Lock()
	p := s.parked[token]
	if p != nil {
		p.timer.Stop()
		delete(s.parked, token)
	}
	s.parkMu.Unlock()
	return p
}

// expirePark releases a parked connection whose resume window lapsed.
func (s *Server) expirePark(token uint64) {
	s.parkMu.Lock()
	p := s.parked[token]
	delete(s.parked, token)
	s.parkMu.Unlock()
	if p != nil {
		p.release(s)
	}
}

// sweepParked releases every parked connection (drain path).
func (s *Server) sweepParked() {
	s.parkMu.Lock()
	parked := s.parked
	s.parked = make(map[uint64]*parkedConn)
	s.parkMu.Unlock()
	for _, p := range parked {
		p.timer.Stop()
		p.release(s)
	}
}

// release returns session budget, oracle registrations, and tenant
// references for one connection's session state — the shared accounting
// for teardown, park expiry, and the drain sweep.
func (st *sessTable) release(s *Server) {
	for i := range st.sessions {
		if sess := &st.sessions[i]; sess.open {
			sess.open = false
			s.sessions.Add(-1)
		}
	}
	for _, ct := range st.tenants {
		ct.t.unregister(ct.oracle)
		// A learning oracle stops judging epochs; frozen oracles make
		// this a no-op.
		ct.oracle.Close()
		s.st.Release(ct.t)
	}
}

// resume handles TResume: adopt a parked connection's sessions. It must
// arrive before any session is opened on this connection — session ids name
// table slots, so adopting into a non-empty table would renumber them.
func (c *conn) resume(m *wire.Uint64) (wire.Message, error) {
	if len(c.sessions) != 0 || len(c.tenants) != 0 {
		return nil, badFrame("Resume after sessions were opened")
	}
	if c.srv.draining.Load() {
		return nil, &protoErr{code: wire.CodeDraining, msg: "server draining; no resume"}
	}
	p := c.srv.unpark(m.V)
	if p == nil {
		return nil, &protoErr{
			code: wire.CodeNoResume,
			msg:  "no parked sessions for this token (expired, resumed, or never granted)",
		}
	}
	c.sessTable = p.sessTable

	resumed := new(wire.Resumed)
	for i := range c.sessions {
		if s := &c.sessions[i]; s.open {
			sa := wire.SessionApplied{Session: s.id}
			if s.sink != nil {
				sa.Applied = s.sink.applied
			}
			resumed.Sessions = append(resumed.Sessions, sa)
		}
	}
	return resumed, nil
}

// replay handles TReplay: apply the batch's events, skipping every sequence
// number at or below the session's applied counter. A client replaying its
// shadow buffer after resume may overlap what the server already applied;
// the counter makes redelivery exactly-once. The suffix past the counter is
// one apply — one containment frame, and a charge for exactly the events
// applied. A replay that starts past the counter (the client lost events
// from its shadow window) moves the counter over the gap first, so it keeps
// numbering the client's sequence.
func (c *conn) replay(m *wire.Replay) (wire.Message, error) {
	if m.Base == 0 {
		return nil, badFrame("Replay base must be 1-based")
	}
	k, release, perr := c.enter(m.Session, false)
	if perr != nil {
		return nil, perr
	}
	if last := m.Base - 1 + uint64(len(m.IDs)); last > k.applied {
		from := max(k.applied, m.Base-1)
		k.applied = from
		k.apply(asIDs(m.IDs[from-(m.Base-1):]))
	}
	applied := k.applied
	release()
	return &wire.SessionApplied{Session: m.Session, Applied: applied}, nil
}
