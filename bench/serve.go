package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/server"
	"repro/internal/transport"
	"repro/pythia"
	"repro/pythia/client"
)

// daemon is pythiad's core run inside the bench process: server.New and
// Serve on a transport.Listen listener, one goroutine beside the generator.
type daemon struct {
	srv  *server.Server
	addr string // what a client dials
	sock string // unix socket path, "" on tcp
	done chan error
}

// startDaemon serves the trace directory on a unix socket in dir or on a
// loopback tcp port.
func startDaemon(dir, traces string, unix bool) (*daemon, error) {
	d := &daemon{done: make(chan error, 1)}
	listen := "127.0.0.1:0"
	if unix {
		d.sock = filepath.Join(dir, "d.sock")
		listen = "unix://" + d.sock
	}
	ln, err := transport.Listen(listen)
	if err != nil {
		return nil, err
	}
	d.addr = listen
	if !unix {
		d.addr = ln.Addr().String()
	}
	d.srv = server.New(server.Config{TraceDir: traces})
	go func() { d.done <- d.srv.Serve(ln) }()
	return d, nil
}

// stop drains the daemon and checks it left nothing behind: Shutdown and
// Serve return nil, no session stays open, the socket file is gone.
func (d *daemon) stop() error {
	errs := []error{d.srv.Shutdown(), <-d.done}
	if n := d.srv.Sessions(); n != 0 {
		errs = append(errs, fmt.Errorf("%d sessions open after shutdown", n))
	}
	if d.sock != "" {
		if _, err := os.Lstat(d.sock); err == nil {
			errs = append(errs, fmt.Errorf("socket %s left behind", d.sock))
			errs = append(errs, os.Remove(d.sock))
		}
	}
	return errors.Join(errs...)
}

// Slice sizes of the serving workloads, in passes over lu8 (16 200 events
// at class medium), and the open-loop schedule.
const (
	unixPasses = 4
	shmPasses  = 16
	// tickNs is the open-loop period: one tick — 16 events and one query,
	// or one session restart — is due every 64 µs, which asks for
	// 250 000 events/s, about a quarter of what the tcp tier sustains
	// unpaced on the reference host.
	tickNs     = 64_000
	pacedTicks = 2048 // ticks per slice of the paced workload
	lapTicks   = 4    // ticks per lap: a quarter of a millisecond of the schedule
	// backlogNs is how far behind schedule the last slice's median tick may
	// start before the run is declared invalid: the generator was not
	// keeping up, so what it measured is a growing queue.
	backlogNs = 1_000_000
)

// serve drives one client connection against the in-process daemon on one
// of the three transport tiers, replaying lu8 rank after rank.
type serve struct {
	tally
	tier    string
	d       *daemon
	c       *client.Client
	o       *client.Oracle
	lu      liveApp
	ref     digest // what an in-process oracle answers on one pass
	pace    *pacer
	predBuf []pythia.Prediction

	// paced workload: position in the pass, kept across slices
	pos struct{ thread, event int }
	dg  digest
}

func setupServe(tier string) func(e env) (instance, error) {
	return func(e env) (instance, error) {
		lu := e.in.sets[0][0]
		w := &serve{tally: tally{laps: e.laps}, tier: tier, lu: liveApp{appStreams: lu, model: lu.model}}
		local, err := pythia.NewPredictOracle(w.lu.model, pythia.Config{})
		if err != nil {
			return nil, err
		}
		w.lu.resolve(local)
		e.laps.mark(0)
		if w.d, err = startDaemon(e.dir, e.in.traces, tier != "tcp"); err != nil {
			return nil, err
		}
		// The server refuses a segment path that is not absolute; the socket
		// path stays relative (an address holds about a hundred bytes).
		shmDir, err := filepath.Abs(e.dir)
		if err != nil {
			return nil, errors.Join(err, w.close())
		}
		w.c, err = client.Dial(w.d.addr, client.Config{SharedMem: tier == "shm", ShmDir: shmDir})
		if err != nil {
			return nil, errors.Join(err, w.close())
		}
		// A fallback tier must not pass for the one under test.
		if got := w.c.Transport(); got != tier {
			return nil, errors.Join(fmt.Errorf("negotiated transport %q, want %q", got, tier), w.close())
		}
		if w.o, err = w.c.Oracle(w.lu.name); err != nil {
			return nil, errors.Join(err, w.close())
		}
		e.laps.mark(0)
		w.ref = w.localDigest(local)
		e.laps.mark(0)
		w.rearm(1 << 12)
		w.dg = fnvOffset
		w.closedPass(&tracer{}) // warm-up pass, unpaced on every tier
		return w, nil
	}
}

func (w *serve) counts() *tally { return &w.tally }

func (w *serve) close() error {
	var errs []error
	if w.c != nil {
		errs = append(errs, w.c.Close())
		w.c = nil
	}
	if w.d != nil {
		errs = append(errs, w.d.stop())
		w.d = nil
	}
	return errors.Join(errs...)
}

// localDigest replays one pass into an in-process oracle with the very
// calls the remote replay makes, and digests its answers. StartAtBeginning
// resets the predictor, so every pass — local or remote — must produce
// this digest.
func (w *serve) localDigest(o *pythia.Oracle) digest {
	dg := fnvOffset
	for _, tid := range w.lu.tids {
		th := o.Thread(tid)
		th.StartAtBeginning()
		stream := w.lu.byTID[tid]
		for i, name := range stream {
			th.Submit(o.Lookup(name))
			if w.tier != "shm" && (i+1)%queryEvery == 0 {
				dg.add(th.PredictAt(queryDist))
			}
		}
		if w.tier == "shm" {
			dg.add(th.PredictAt(queryDist))
		}
	}
	return dg
}

func (w *serve) slice(tr *tracer) (int64, int64) {
	before, start := w.events, nowNs()
	switch w.tier {
	case "tcp":
		if w.pace == nil {
			// The schedule starts with the timed phase, not with set-up.
			w.late = newSamples(cap(w.waits.ns))
			w.pace = &pacer{now: nowNs, start: nowNs(), period: tickNs}
		}
		for k := 0; k < pacedTicks; k++ {
			w.tick(tr)
			if (k+1)%lapTicks == 0 {
				w.lap()
			}
		}
	case "shm":
		for p := 0; p < shmPasses; p++ {
			w.closedPass(tr)
		}
	default:
		for p := 0; p < unixPasses; p++ {
			w.closedPass(tr)
		}
	}
	return w.events - before, nowNs() - start
}

// closedPass is one closed-loop pass: the caller's next call goes out when
// the previous one returned.
func (w *serve) closedPass(tr *tracer) {
	for _, tid := range w.lu.tids {
		if w.tier == "shm" {
			w.replayShm(tr, tid)
		} else {
			w.replaySocket(tr, tid)
		}
	}
	w.endPass()
}

// endPass holds the finished pass's digest against the local reference.
func (w *serve) endPass() {
	if w.dg != w.ref {
		w.fail(1, "remote pass digest %016x, in-process oracle gives %016x", w.dg, w.ref)
	}
	w.dg = fnvOffset
}

// query is one timed PredictAt round trip, digested and scored against the
// event that is actually submitted queryDist later. Its latency runs from
// the call, or in the open loop from the tick's due time (due >= 0).
func (w *serve) query(tr *tracer, th *client.Thread, ids []pythia.ID, i int, due int64) {
	t0 := nowNs()
	pr, ok := th.PredictAt(queryDist)
	t1 := nowNs()
	if tr.on {
		tr.beginAt("client.PredictAt", t0)
		tr.endAt(1, t1)
	}
	if due < 0 {
		due = t0
	}
	w.waits.add(t1 - due)
	w.dg.add(pr, ok)
	w.attempted++
	w.asked++
	if ok {
		w.answered++
	}
	if i+queryDist < len(ids) {
		w.scored[0]++
		if ok && pr.EventID == int32(ids[i+queryDist]) {
			w.hits[0]++
		}
	}
}

// submit sends stream[lo:hi] through the client, one span per call batch.
func (w *serve) submit(tr *tracer, th *client.Thread, stream []string, lo, hi int) {
	if tr.on {
		tr.begin("client.Intern+Submit")
	}
	for _, name := range stream[lo:hi] {
		th.Submit(w.o.Intern(name))
	}
	if tr.on {
		tr.end(int64(hi - lo))
	}
	w.events += int64(hi - lo)
	w.attempted += int64(hi - lo)
}

// restart rewinds a session to the start of the trace (two round trips).
func (w *serve) restart(tr *tracer, th *client.Thread) {
	if tr.on {
		tr.begin("client.StartAtBeginning")
	}
	th.StartAtBeginning()
	if tr.on {
		tr.end(1)
	}
	w.attempted++
}

// replaySocket replays one rank stream on a socket tier: Submit per event
// and a timed PredictAt round trip after every queryEvery-th.
func (w *serve) replaySocket(tr *tracer, tid int32) {
	th, stream, ids := w.o.Thread(tid), w.lu.byTID[tid], w.lu.ids[tid]
	w.restart(tr, th)
	for lo := 0; lo < len(stream); lo += queryEvery {
		hi := min(lo+queryEvery, len(stream))
		w.submit(tr, th, stream, lo, hi)
		if hi-lo == queryEvery {
			w.query(tr, th, ids, hi-1, -1)
		}
		if hi%spanBatch == 0 || hi == len(stream) {
			w.lap()
		}
	}
}

// tick runs the open loop's next tick: wait until it is due, then either
// restart the session at the head of a rank stream, or submit the next
// queryEvery events and ask for a prediction. Latency runs from the due
// time, so a tick delayed by its predecessors is charged the delay.
func (w *serve) tick(tr *tracer) {
	due, late := w.pace.next()
	w.late.add(late)
	tid := w.lu.tids[w.pos.thread]
	th, stream := w.o.Thread(tid), w.lu.byTID[tid]
	if tr.on {
		tr.beginAt("tick", due)
	}
	switch lo := w.pos.event; {
	case lo < 0:
		w.restart(tr, th)
		w.pos.event = 0
	default:
		hi := min(lo+queryEvery, len(stream))
		w.submit(tr, th, stream, lo, hi)
		if hi-lo == queryEvery {
			w.query(tr, th, w.lu.ids[tid], hi-1, due)
		}
		w.pos.event = hi
	}
	if tr.on {
		tr.end(1)
	}
	if w.pos.event >= len(stream) {
		w.pos.event = -1
		if w.pos.thread++; w.pos.thread == len(w.lu.tids) {
			w.pos.thread = 0
			w.endPass()
		}
	}
}

// replayShm replays one rank stream on the shared-memory tier: Submit goes
// to the ring, the server streams its next-16 predictions into the shared
// slot, Latest reads them and is scored on whether the event submitted next
// is in the window, and a PredictAt socket round trip at the end of the
// stream is the fence: the server drains the ring before it answers, so
// only events it has consumed count towards the slice.
func (w *serve) replayShm(tr *tracer, tid int32) {
	th, stream, ids := w.o.Thread(tid), w.lu.byTID[tid], w.lu.ids[tid]
	w.restart(tr, th)
	for lo := 0; lo < len(stream); lo += spanBatch {
		hi := min(lo+spanBatch, len(stream))
		if tr.on {
			tr.begin("client.Intern+Submit+Latest")
		}
		for i := lo; i < hi; i++ {
			th.Submit(w.o.Intern(stream[i]))
			if i == 0 {
				// The first Submit bound the ring; subscribe on it.
				w.attempted++
				if err := th.Subscribe(queryDist, queryEvery); err != nil {
					w.fail(1, "Subscribe on thread %d: %v", tid, err)
				}
			}
			if (i+1)%queryEvery != 0 || i+1 >= len(stream) {
				continue
			}
			var ok bool
			w.predBuf, ok = th.Latest(w.predBuf)
			w.asked++
			if ok {
				w.answered++
			}
			w.scored[0]++
			for _, pr := range w.predBuf {
				if ok && pr.EventID == int32(ids[i+1]) {
					w.hits[0]++
					break
				}
			}
		}
		if tr.on {
			tr.end(int64(hi - lo))
		}
	}
	w.events += int64(len(stream))
	w.attempted += int64(len(stream))
	t0 := nowNs()
	pr, ok := th.PredictAt(queryDist)
	t1 := nowNs()
	if tr.on {
		tr.beginAt("client.PredictAt(fence)", t0)
		tr.endAt(1, t1)
	}
	w.waits.add(t1 - t0)
	w.dg.add(pr, ok)
	w.attempted++
	// One lap per rank stream, fence included: how fast the ring takes the
	// events and how long the fence then waits for the server to drain it
	// trade against each other, so they are timed as one.
	w.lap()
}

// check looks at what the connection went through: any transport or
// protocol error, reconnect, dropped event or refusal is a failure, the
// remote oracle must be healthy, and the open loop must not have fallen
// behind its schedule. Shutting the daemon down is part of the check.
func (w *serve) check() error {
	var errs []error
	if err := w.c.Err(); err != nil {
		errs = append(errs, fmt.Errorf("client error: %w", err))
	}
	if w.client = w.c.Stats(); w.client != (client.Stats{}) {
		errs = append(errs, fmt.Errorf("client stats not zero: %+v", w.client))
	}
	if h := w.o.Health(); h.State != pythia.Healthy {
		errs = append(errs, fmt.Errorf("remote oracle is %s: %s", h.State, h.Cause))
	}
	if got := w.c.Transport(); got != w.tier {
		errs = append(errs, fmt.Errorf("transport became %q, want %q", got, w.tier))
	}
	if w.late != nil {
		s := w.late.ns
		tail := append([]int32(nil), s[max(0, len(s)-pacedTicks):]...)
		slices.Sort(tail)
		if m := groupedMedian(tail); m > backlogNs {
			errs = append(errs, fmt.Errorf("generator ended %.0f µs behind schedule: the backlog was growing", m/1e3))
		}
	}
	errs = append(errs, w.close())
	return errors.Join(errs...)
}
