package server

import (
	"net"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/harness"
	"repro/internal/wire"
	"repro/pythia"
	"repro/pythia/client"
)

// nopConn is a no-op net.Conn for driving the frame handler in-memory:
// writes succeed and vanish, reads report a clean end of stream.
type nopConn struct{}

type nopAddr struct{}

func (nopAddr) Network() string { return "nop" }
func (nopAddr) String() string  { return "nop" }

func (nopConn) Read(b []byte) (int, error)         { return 0, net.ErrClosed }
func (nopConn) Write(b []byte) (int, error)        { return len(b), nil }
func (nopConn) Close() error                       { return nil }
func (nopConn) LocalAddr() net.Addr                { return nopAddr{} }
func (nopConn) RemoteAddr() net.Addr               { return nopAddr{} }
func (nopConn) SetDeadline(t time.Time) error      { return nil }
func (nopConn) SetReadDeadline(t time.Time) error  { return nil }
func (nopConn) SetWriteDeadline(t time.Time) error { return nil }

// benchConn builds a served connection over an in-memory transport with an
// open session on a synthetic repeating trace, plus the per-event Submit
// payloads of one pattern repetition.
func benchConn(tb testing.TB, reps int) (*conn, uint32, [][]byte) {
	tb.Helper()
	dir := tb.TempDir()
	names := synthTrace(tb, dir, "synth", reps)
	srv := New(Config{TraceDir: dir})
	c := newConn(srv, nopConn{})
	if err := c.handleFrame(wire.TOpenSession, wire.AppendOpenSession(nil, wire.OpenSession{
		TID: 0, Flags: wire.FlagStartAtBeginning, Tenant: "synth",
	})); err != nil {
		tb.Fatalf("opening session: %v", err)
	}
	sid := uint32(len(c.sessions) - 1)
	reg := make(map[string]int32)
	for i, name := range c.sessions[sid].ct.t.ts.Events {
		reg[name] = int32(i)
	}
	payloads := make([][]byte, len(names))
	for i, name := range names {
		payloads[i] = wire.AppendSubmit(nil, sid, reg[name])
	}
	return c, sid, payloads
}

// BenchmarkServeSubmit measures the steady-state per-request server path
// for the one-way Submit frame: parse, session dispatch, oracle Submit.
// The acceptance bar is 0 allocs/op.
func BenchmarkServeSubmit(b *testing.B) {
	const reps = 1 << 18
	c, sid, payloads := benchConn(b, reps)
	th := c.sessions[sid].th
	// Warm the prediction window's buffers so the timed region is
	// pure steady state.
	for i := 0; i < 1024; i++ {
		if err := c.handleFrame(wire.TSubmit, payloads[i%len(payloads)]); err != nil {
			b.Fatalf("warmup: %v", err)
		}
	}
	limit := reps*len(payloads) - 2048
	phase, submitted := 1024, 1024
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if submitted >= limit {
			// The replay is nearing the end of the reference trace:
			// rewind (outside the timed region) so every measured Submit
			// is a mid-trace steady-state one.
			b.StopTimer()
			th.StartAtBeginning()
			phase, submitted = 0, 0
			b.StartTimer()
		}
		if err := c.handleFrame(wire.TSubmit, payloads[phase%len(payloads)]); err != nil {
			b.Fatal(err)
		}
		phase++
		submitted++
	}
}

// BenchmarkServePredictAt measures the request/response serving path: the
// prediction itself plus response encode into the write buffer.
func BenchmarkServePredictAt(b *testing.B) {
	c, sid, payloads := benchConn(b, 1<<12)
	for i := 0; i < 256; i++ {
		if err := c.handleFrame(wire.TSubmit, payloads[i%len(payloads)]); err != nil {
			b.Fatalf("warmup: %v", err)
		}
	}
	req := wire.AppendPredictAt(nil, sid, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.handleFrame(wire.TPredictAt, req); err != nil {
			b.Fatal(err)
		}
		// Keep the bufio writer from accumulating: it flushes to the
		// no-op transport.
		if c.BW.Buffered() > 1<<15 {
			if err := c.BW.Flush(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// TestServeSubmitZeroAlloc pins the acceptance criterion directly: the
// steady-state Submit serving path performs zero allocations per request.
func TestServeSubmitZeroAlloc(t *testing.T) {
	c, _, payloads := benchConn(t, 1<<13)
	for i := 0; i < 1024; i++ {
		if err := c.handleFrame(wire.TSubmit, payloads[i%len(payloads)]); err != nil {
			t.Fatalf("warmup: %v", err)
		}
	}
	phase := 1024
	allocs := testing.AllocsPerRun(2000, func() {
		if err := c.handleFrame(wire.TSubmit, payloads[phase%len(payloads)]); err != nil {
			t.Fatal(err)
		}
		phase++
	})
	if allocs != 0 {
		t.Fatalf("Submit serving path allocated %v/op in steady state, want 0", allocs)
	}
}

// TestServeSubmitBatchMatchesSubmit checks the batched one-way path feeds
// the oracle identically to per-event frames.
func TestServeSubmitBatchMatchesSubmit(t *testing.T) {
	dir := t.TempDir()
	names := synthTrace(t, dir, "synth", 128)
	srv := New(Config{TraceDir: dir})

	open := wire.AppendOpenSession(nil, wire.OpenSession{TID: 0, Flags: wire.FlagStartAtBeginning, Tenant: "synth"})

	single := newConn(srv, nopConn{})
	if err := single.handleFrame(wire.TOpenSession, open); err != nil {
		t.Fatalf("open: %v", err)
	}
	batched := newConn(srv, nopConn{})
	if err := batched.handleFrame(wire.TOpenSession, open); err != nil {
		t.Fatalf("open: %v", err)
	}

	reg := make(map[string]int32)
	for i, name := range single.sessions[0].ct.t.ts.Events {
		reg[name] = int32(i)
	}
	var ids []int32
	for i := 0; i < 37; i++ {
		ids = append(ids, reg[names[i%len(names)]])
	}
	for _, id := range ids {
		if err := single.handleFrame(wire.TSubmit, wire.AppendSubmit(nil, 0, id)); err != nil {
			t.Fatalf("submit: %v", err)
		}
	}
	if err := batched.handleFrame(wire.TSubmitBatch, wire.AppendSubmitBatch(nil, 0, ids)); err != nil {
		t.Fatalf("batch: %v", err)
	}
	a, aok := single.sessions[0].th.PredictAt(1)
	b, bok := batched.sessions[0].th.PredictAt(1)
	if aok != bok || !samePrediction(a, b) {
		t.Fatalf("batched path diverged: %+v/%v vs %+v/%v", a, aok, b, bok)
	}
}

// BenchmarkShmRankStream replays one LU rank (class medium, seed 42: about
// two thousand events) over the shared-memory tier the way the serving
// benchmark streams it, and splits each replay into its phases: restart
// (StartAtBeginning, one OpenSession round trip), bind (the first Submit,
// which binds a ring), subscribe, push (Submit into the ring plus a Latest
// read every 16 events) and fence (the PredictAt round trip the daemon
// answers only after draining the ring). Each phase is reported per replay,
// push per event.
func BenchmarkShmRankStream(b *testing.B) {
	app, err := apps.ByName("LU")
	if err != nil {
		b.Fatal(err)
	}
	stream := harness.CaptureStreams(app, apps.Medium, 42)[0]
	var now atomic.Int64
	rec := pythia.NewRecordOracle(pythia.WithClock(func() int64 { return now.Add(1000) }))
	for _, name := range stream {
		rec.Thread(0).Submit(rec.Intern(name))
	}
	ts, err := rec.Finish()
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	if err := pythia.SaveTraceSet(filepath.Join(dir, "lu.pythia"), ts); err != nil {
		b.Fatal(err)
	}
	_, _, unixAddr := startServerTransports(b, Config{TraceDir: dir})
	o, err := client.Connect(unixAddr, "lu", client.Config{SharedMem: true})
	if err != nil {
		b.Fatal(err)
	}
	defer o.Close()
	if got := o.Transport(); got != "shm" {
		b.Fatalf("transport %q, want shm", got)
	}
	th := o.Thread(0)
	var buf []pythia.Prediction
	var restart, bind, subscribe, push, fence time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		th.StartAtBeginning()
		t1 := time.Now()
		th.Submit(o.Intern(stream[0]))
		t2 := time.Now()
		if err := th.Subscribe(16, 16); err != nil {
			b.Fatal(err)
		}
		t3 := time.Now()
		for j := 1; j < len(stream); j++ {
			th.Submit(o.Intern(stream[j]))
			if (j+1)%16 == 0 {
				buf, _ = th.Latest(buf)
			}
		}
		t4 := time.Now()
		th.PredictAt(16) // at the end of the reference: the answer is "none"
		t5 := time.Now()
		restart += t1.Sub(t0)
		bind += t2.Sub(t1)
		subscribe += t3.Sub(t2)
		push += t4.Sub(t3)
		fence += t5.Sub(t4)
	}
	n := float64(b.N)
	us := func(d time.Duration) float64 { return float64(d.Microseconds()) / n }
	b.ReportMetric(us(restart), "restart_us")
	b.ReportMetric(us(bind), "bind_us")
	b.ReportMetric(us(subscribe), "subscribe_us")
	b.ReportMetric(float64(push.Nanoseconds())/n/float64(len(stream)-1), "push_ns/event")
	b.ReportMetric(us(fence), "fence_us")
}
