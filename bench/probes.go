package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/grammar"
	"repro/internal/harness"
	"repro/internal/ompsim"
	"repro/internal/predictor"
	"repro/internal/recorder"
	"repro/internal/server"
	"repro/internal/tracefile"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/pythia"
	"repro/pythia/client"
)

// Layer probes replay generated inputs directly against one layer's public
// functions, beneath the call the workloads make, so that a change in an
// end-to-end figure can be traced to the layer that moved. Every traced run
// executes all of them on the same two inputs, whatever its workload: the
// rank streams of LU ("regular": nested loops, identical under any seed)
// and of AMG and Quicksilver ("irregular": the model comes from seed, the
// live stream from seed+1, so the predictor has to re-anchor).

// sink keeps results alive so the compiler cannot drop a measured call.
var sink any

// prober shares the probes' time budget and collects their figures.
type prober struct {
	per time.Duration // budget of one timed loop
	m   map[string]float64
}

// probeLoops is how many timed loops runProbes makes (rounded up); each
// gets an equal share of the budget.
const probeLoops = 40

// perOp times batch — which performs n operations and returns how long they
// took — until the loop's budget is spent (five batches at least), and
// returns the median batch's nanoseconds per operation.
func (p *prober) perOp(n int, batch func() int64) float64 {
	var per []float64
	for start := time.Now(); len(per) < 5 || time.Since(start) < p.per; {
		per = append(per, float64(batch())/float64(n))
	}
	return median(per)
}

// timed runs fn and returns its duration in nanoseconds.
func timed(fn func()) int64 {
	t0 := nowNs()
	fn()
	return nowNs() - t0
}

// idStreams maps every rank stream of a to event ids through lookup,
// dropping names the table does not hold (Submit ignores them too).
func idStreams(a appStreams, lookup func(string) int32) (out [][]int32, events int) {
	for _, tid := range a.tids {
		ids := make([]int32, 0, len(a.byTID[tid]))
		for _, name := range a.byTID[tid] {
			if id := lookup(name); id >= 0 {
				ids = append(ids, id)
			}
		}
		out = append(out, ids)
		events += len(ids)
	}
	return out, events
}

// runProbes measures every layer and adds its metrics to m.
func runProbes(class apps.Class, seed int64, dir string, budget time.Duration, m map[string]float64) error {
	p := &prober{per: budget / probeLoops, m: m}
	regular, err := capture(lu8, class, seed)
	if err != nil {
		return err
	}
	irrRef, err := capture(irregularApps, class, seed)
	if err != nil {
		return err
	}
	irrLive, err := capture(irregularApps, class, seed+1)
	if err != nil {
		return err
	}
	lu := regular[0]
	luModel, err := recordModel(lu)
	if err != nil {
		return err
	}

	reg := events.NewRegistry()
	intern := func(name string) int32 { return int32(reg.Intern(name)) }
	regIDs, regN := idStreams(lu, intern)
	var irrIDs [][]int32
	irrN := 0
	for _, a := range irrRef {
		ids, n := idStreams(a, intern)
		irrIDs, irrN = append(irrIDs, ids...), irrN+n
	}

	p.probeEvents(reg, lu)
	p.probeGrammar(regIDs, regN, irrIDs, irrN)
	p.probeRecorder(regIDs, regN)
	if err := p.probeCore(lu, luModel, regN); err != nil {
		return err
	}
	if err := p.probePredictor(lu, luModel, irrRef, irrLive); err != nil {
		return err
	}
	if err := p.probeTracefile(luModel, dir); err != nil {
		return err
	}
	p.probeWire(regIDs[0])
	if err := p.probeTransport(dir); err != nil {
		return err
	}
	if err := p.probeServer(dir, lu, luModel); err != nil {
		return err
	}
	if err := p.probeClient(dir, lu, luModel); err != nil {
		return err
	}

	var gain float64
	points := harness.Fig10(ompsim.Pudding())
	for _, pt := range points {
		gain += pt.ImprovementPct
	}
	m["harness.lulesh_speedup_pct"] = gain / float64(len(points))

	// Reconciliation: how much of a call the layers beneath it explain.
	m["pythia.record_unattributed_pct"] = 100 * (1 - (m["events.intern_hit_ns"]+m["recorder.record_at_ns"]+m["recorder.clock_ns"])/m["pythia.record_ns"])
	serverShare := m["server.pipe_predict_rtt_us"] - m["server.pipe_echo_rtt_us"]
	codec := (m["wire.predict_req_codec_ns"] + m["wire.prediction_codec_ns"] + 2*m["wire.frame_io_ns"]) / 1e3
	m["client.rtt_unattributed_pct"] = 100 * (1 - (m["transport.unix_echo_rtt_us"]+serverShare+codec)/m["client.rtt_p50_us.unix"])
	m["core.learn_extra_ns"] = m["core.submit_learn_ns"] - m["core.submit_record_ns"] - m["core.submit_predict_ns"]
	return nil
}

func (p *prober) probeEvents(reg *events.Registry, lu appStreams) {
	names := lu.byTID[lu.tids[0]]
	p.m["events.intern_hit_ns"] = p.perOp(len(names), func() int64 {
		return timed(func() {
			for _, name := range names {
				sink = reg.Intern(name)
			}
		})
	})
}

func (p *prober) probeGrammar(regIDs [][]int32, regN int, irrIDs [][]int32, irrN int) {
	build := func(streams [][]int32) []*grammar.Grammar {
		gs := make([]*grammar.Grammar, len(streams))
		for i, ids := range streams {
			g := grammar.New()
			for _, id := range ids {
				g.Append(id)
			}
			gs[i] = g
		}
		return gs
	}
	p.m["grammar.append_ns.regular"] = p.perOp(regN, func() int64 { return timed(func() { sink = build(regIDs) }) })
	p.m["grammar.append_ns.irregular"] = p.perOp(irrN, func() int64 { return timed(func() { sink = build(irrIDs) }) })
	gs := build(regIDs)
	p.m["grammar.freeze_us"] = p.perOp(len(gs), func() int64 {
		return timed(func() {
			for _, g := range gs {
				sink = g.Freeze()
			}
		})
	}) / 1e3
	var rules, nodes int
	for _, g := range append(gs, build(irrIDs)...) {
		rules += g.RuleCount()
		nodes += g.NodeCount()
	}
	p.m["grammar.rules"], p.m["grammar.nodes"] = float64(rules), float64(nodes)
}

func (p *prober) probeRecorder(streams [][]int32, n int) {
	p.m["recorder.record_at_ns"] = p.perOp(n, func() int64 {
		return timed(func() {
			now := int64(0)
			for _, ids := range streams {
				r := recorder.New()
				for _, id := range ids {
					now += 1000
					r.RecordAt(events.ID(id), now)
				}
				sink = r
			}
		})
	})
	record := p.perOp(n, func() int64 {
		return timed(func() {
			for _, ids := range streams {
				r := recorder.New()
				for _, id := range ids {
					r.Record(events.ID(id))
				}
				sink = r
			}
		})
	})
	p.m["recorder.clock_ns"] = record - p.m["recorder.record_at_ns"]
}

// submitAll feeds every rank stream of a to the session's threads.
func submitAll(s *core.Session, a appStreams, ids map[int32][]pythia.ID, rewind bool) {
	for _, tid := range a.tids {
		th := s.Thread(tid)
		if rewind {
			th.StartAtBeginning()
		}
		for _, id := range ids[tid] {
			th.Submit(id)
		}
	}
}

func (p *prober) probeCore(lu appStreams, model *pythia.TraceSet, n int) error {
	la := liveApp{appStreams: lu}
	o, err := pythia.NewPredictOracle(model, pythia.Config{})
	if err != nil {
		return err
	}
	la.resolve(o)

	p.m["core.submit_record_ns"] = p.perOp(n, func() int64 {
		s := core.NewRecordSession()
		return timed(func() { submitAll(s, lu, la.ids, false) })
	})
	p.m["core.finish_us"] = p.perOp(1, func() int64 {
		s := core.NewRecordSession()
		submitAll(s, lu, la.ids, false)
		return timed(func() { sink, _ = s.FinishRecord() })
	}) / 1e3
	ps, err := core.NewPredictSession(model, predictor.Config{})
	if err != nil {
		return err
	}
	p.m["core.submit_predict_ns"] = p.perOp(n, func() int64 {
		return timed(func() { submitAll(ps, lu, la.ids, true) })
	})
	var lerr error
	p.m["core.submit_learn_ns"] = p.perOp(n, func() int64 {
		ls, err := core.NewLearningSession(model, predictor.Config{}, core.LearnPolicy{},
			core.WithRecorderOptions(recorder.WithClock(syntheticClock())))
		if err != nil {
			lerr = err
			return 0
		}
		defer ls.Close()
		return timed(func() { submitAll(ls, lu, la.ids, true) })
	})
	if lerr != nil {
		return lerr
	}
	p.m["pythia.record_ns"] = p.perOp(n, func() int64 {
		ro := pythia.NewRecordOracle()
		return timed(func() {
			for _, tid := range lu.tids {
				th := ro.Thread(tid)
				for _, name := range lu.byTID[tid] {
					th.Submit(ro.Intern(name))
				}
			}
		})
	})
	return nil
}

// predictorRun is one rank's predictor with the live ids it is fed.
type predictorRun struct {
	p   *predictor.Predictor
	ids []int32
}

// predictorRuns builds a predictor per rank of the reference executions and
// maps the live executions' streams into each model's event table.
func predictorRuns(models []*pythia.TraceSet, live []appStreams) (runs []predictorRun, events int) {
	for i, ts := range models {
		table := make(map[string]int32, len(ts.Events))
		for id, name := range ts.Events {
			table[name] = int32(id)
		}
		lookup := func(name string) int32 {
			if id, ok := table[name]; ok {
				return id
			}
			return -1
		}
		streams, n := idStreams(live[i], lookup)
		events += n
		for k, tid := range live[i].tids {
			if tr := ts.Trace(tid); tr != nil {
				runs = append(runs, predictorRun{p: predictor.New(tr, predictor.Config{}), ids: streams[k]})
			}
		}
	}
	return runs, events
}

func (p *prober) probePredictor(lu appStreams, luModel *pythia.TraceSet, irrRef, irrLive []appStreams) error {
	// replay observes every stream; with dist > 0 it also asks for a
	// prediction after each event, the cost the cache cannot hide.
	replay := func(runs []predictorRun, dist int) int64 {
		return timed(func() {
			for _, r := range runs {
				r.p.StartAtBeginning()
				for _, id := range r.ids {
					r.p.Observe(id)
					if dist > 0 {
						sink, _ = r.p.PredictAt(dist)
					}
				}
			}
		})
	}
	regRuns, regN := predictorRuns([]*pythia.TraceSet{luModel}, []appStreams{lu})
	p.m["predictor.observe_ns.regular"] = p.perOp(regN, func() int64 { return replay(regRuns, 0) })
	for _, d := range []int{1, 16, 64} {
		with := p.perOp(regN, func() int64 { return replay(regRuns, d) })
		p.m[fmt.Sprintf("predictor.predict_at_ns.d%d", d)] = with - p.m["predictor.observe_ns.regular"]
	}

	var irrModels []*pythia.TraceSet
	for _, a := range irrRef {
		ts, err := recordModel(a)
		if err != nil {
			return err
		}
		irrModels = append(irrModels, ts)
	}
	irrRuns, irrN := predictorRuns(irrModels, irrLive)
	p.m["predictor.observe_ns.irregular"] = p.perOp(irrN, func() int64 { return replay(irrRuns, 0) })
	var before, after predictor.Stats
	for _, r := range irrRuns {
		s := r.p.Stats()
		before.Observed, before.ReAnchored, before.Unknown = before.Observed+s.Observed, before.ReAnchored+s.ReAnchored, before.Unknown+s.Unknown
	}
	replay(irrRuns, 0)
	for _, r := range irrRuns {
		s := r.p.Stats()
		after.Observed, after.ReAnchored, after.Unknown = after.Observed+s.Observed, after.ReAnchored+s.ReAnchored, after.Unknown+s.Unknown
	}
	// Accuracy by distance on the streams that diverge from their model:
	// exact counts, so a faster predictor cannot quietly be a worse one.
	for _, d := range []int{1, 16, 64} {
		var scored, hits int
		for _, r := range irrRuns {
			r.p.StartAtBeginning()
			for i, id := range r.ids {
				r.p.Observe(id)
				if i+d >= len(r.ids) {
					continue
				}
				scored++
				if pr, ok := r.p.PredictAt(d); ok && pr.EventID == r.ids[i+d] {
					hits++
				}
			}
		}
		p.m[fmt.Sprintf("predictor.accuracy_pct.d%d", d)] = 100 * float64(hits) / float64(scored)
	}
	seen := float64(after.Observed - before.Observed)
	p.m["predictor.reanchored_per_kevent"] = 1000 * float64(after.ReAnchored-before.ReAnchored) / seen
	p.m["predictor.unknown_per_kevent"] = 1000 * float64(after.Unknown-before.Unknown) / seen
	return nil
}

func (p *prober) probeTracefile(ts *pythia.TraceSet, dir string) error {
	n := int(ts.TotalEvents())
	var buf bytes.Buffer
	var err error
	p.m["tracefile.write_ns_per_event"] = p.perOp(n, func() int64 {
		buf.Reset()
		return timed(func() { err = errors.Join(err, tracefile.Write(&buf, ts)) })
	})
	p.m["tracefile.bytes_per_kevent"] = 1000 * float64(buf.Len()) / float64(n)
	p.m["tracefile.read_ns_per_event"] = p.perOp(n, func() int64 {
		return timed(func() {
			var rerr error
			sink, rerr = tracefile.Read(bytes.NewReader(buf.Bytes()))
			err = errors.Join(err, rerr)
		})
	})
	path := filepath.Join(dir, "probe.pythia")
	p.m["tracefile.save_ms"] = p.perOp(1, func() int64 {
		return timed(func() { err = errors.Join(err, tracefile.Save(path, ts)) })
	}) / 1e6
	return err
}

// Payload sizes of the frames a PredictAt round trip carries.
var (
	predictReq   = wire.AppendPredictAt(nil, 1, queryDist)
	predictReply = wire.AppendPrediction(nil, predictor.Prediction{EventID: 7, Probability: 0.5, Distance: queryDist, ExpectedNs: 1e4}, true)
)

func (p *prober) probeWire(ids []int32) {
	const batch, reps = 64, 256
	ids = ids[:batch]
	var buf []byte
	p.m["wire.encode_submit_batch_ns_per_event"] = p.perOp(batch*reps, func() int64 {
		return timed(func() {
			for i := 0; i < reps; i++ {
				buf = wire.AppendSubmitBatch(buf[:0], 1, ids)
			}
		})
	})
	var sum int32
	p.m["wire.parse_submit_batch_ns_per_event"] = p.perOp(batch*reps, func() int64 {
		return timed(func() {
			for i := 0; i < reps; i++ {
				_, b, _ := wire.ParseSubmitBatch(buf)
				for k := 0; k < b.Len(); k++ {
					sum += b.At(k)
				}
			}
		})
	})
	sink = sum
	p.m["wire.predict_req_codec_ns"] = p.perOp(reps, func() int64 {
		return timed(func() {
			for i := 0; i < reps; i++ {
				buf = wire.AppendPredictAt(buf[:0], 1, queryDist)
				_, d, _ := wire.ParsePredictAt(buf)
				sum += int32(d)
			}
		})
	})
	pr := predictor.Prediction{EventID: 7, Probability: 0.5, Distance: queryDist, ExpectedNs: 1e4}
	p.m["wire.prediction_codec_ns"] = p.perOp(reps, func() int64 {
		return timed(func() {
			for i := 0; i < reps; i++ {
				buf = wire.AppendPrediction(buf[:0], pr, true)
				got, _, _ := wire.ParsePrediction(buf)
				sum += got.EventID
			}
		})
	})
	var pipe bytes.Buffer
	bw, br := bufio.NewWriter(&pipe), bufio.NewReader(&pipe)
	var body []byte
	p.m["wire.frame_io_ns"] = p.perOp(reps, func() int64 {
		return timed(func() {
			for i := 0; i < reps; i++ {
				_ = wire.WriteFrame(bw, wire.TPredictAt, predictReq) // a bytes.Buffer cannot fail
			}
			_ = bw.Flush()
			for i := 0; i < reps; i++ {
				_, payload, _ := wire.ReadFrame(br, &body)
				sum += int32(len(payload))
			}
		})
	})
	sink = sum
}

// frameConn is a connection carrying wire frames, as both probes' ends use.
type frameConn struct {
	nc  net.Conn
	br  *bufio.Reader
	bw  *bufio.Writer
	buf []byte
}

func newFrameConn(nc net.Conn) *frameConn {
	return &frameConn{nc: nc, br: bufio.NewReader(nc), bw: bufio.NewWriter(nc)}
}

// roundTrip sends one frame and reads the answer.
func (f *frameConn) roundTrip(t wire.Type, payload []byte) (wire.Type, []byte, error) {
	if err := wire.WriteFrame(f.bw, t, payload); err != nil {
		return 0, nil, err
	}
	if err := f.bw.Flush(); err != nil {
		return 0, nil, err
	}
	return wire.ReadFrame(f.br, &f.buf)
}

// echo answers every frame with a Prediction-sized reply until the peer
// hangs up: the transport with no server behind it.
func (f *frameConn) echo() {
	for {
		if _, _, err := wire.ReadFrame(f.br, &f.buf); err != nil {
			return
		}
		if wire.WriteFrame(f.bw, wire.TPrediction, predictReply) != nil || f.bw.Flush() != nil {
			return
		}
	}
}

// rttP50 times PredictAt-sized round trips on f for the loop's budget and
// returns their median in microseconds.
func (p *prober) rttP50(f *frameConn, t wire.Type, payload []byte) (float64, error) {
	s := newSamples(1 << 16)
	for start := time.Now(); len(s.ns) < 100 || time.Since(start) < p.per; {
		t0 := nowNs()
		if _, _, err := f.roundTrip(t, payload); err != nil {
			return 0, err
		}
		s.add(nowNs() - t0)
	}
	return groupedMedian(s.sorted()) / 1e3, nil
}

// echoRTT measures the frame round trip over a real listener with an echo
// goroutine on the other end: the floor under a serving tier.
func (p *prober) echoRTT(listen string) (float64, error) {
	ln, err := transport.Listen(listen)
	if err != nil {
		return 0, err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if nc, err := ln.Accept(); err == nil {
			newFrameConn(nc).echo()
			nc.Close()
		}
	}()
	addr := listen
	if network, _, _ := transport.ParseAddr(listen); network == transport.NetTCP {
		addr = ln.Addr().String()
	}
	nc, _, err := transport.Dial(addr, time.Second)
	if err != nil {
		return 0, errors.Join(err, ln.Close())
	}
	rtt, err := p.rttP50(newFrameConn(nc), wire.TPredictAt, predictReq)
	err = errors.Join(err, nc.Close(), ln.Close())
	<-done
	return rtt, err
}

func (p *prober) probeTransport(dir string) error {
	var err error
	if p.m["transport.unix_echo_rtt_us"], err = p.echoRTT("unix://" + filepath.Join(dir, "echo.sock")); err != nil {
		return err
	}
	if p.m["transport.tcp_echo_rtt_us"], err = p.echoRTT("127.0.0.1:0"); err != nil {
		return err
	}

	g := transport.Geometry{Rings: 1, Slots: 4096, PredCap: 64}
	seg, err := transport.NewMemSegment(g)
	if err != nil {
		return err
	}
	rings, err := transport.MapRings(seg, g)
	if err != nil {
		return err
	}
	r, buf := &rings[0], make([]int32, g.Slots)
	fill := func() {
		for i := 0; i < g.Slots; i++ {
			r.TryPush(int32(i))
		}
	}
	drain := func() {
		for {
			if n, derr := r.ConsumeInto(buf); n == 0 || derr != nil {
				err = errors.Join(err, derr)
				return
			}
		}
	}
	p.m["transport.ring_push_ns"] = p.perOp(g.Slots, func() int64 {
		d := timed(fill)
		drain()
		return d
	})
	p.m["transport.ring_consume_ns_per_event"] = p.perOp(g.Slots, func() int64 {
		fill()
		return timed(drain)
	})
	preds := make([]predictor.Prediction, queryDist)
	const reps = 1024
	p.m["transport.ring_pred_publish_ns"] = p.perOp(reps, func() int64 {
		return timed(func() {
			for i := 0; i < reps; i++ {
				r.PublishPredictions(preds)
			}
		})
	})
	var got []predictor.Prediction
	p.m["transport.ring_pred_read_ns"] = p.perOp(reps, func() int64 {
		return timed(func() {
			for i := 0; i < reps; i++ {
				got, _ = r.ReadPredictions(got)
			}
		})
	})
	return err
}

// pipeListener hands the server one end of an in-memory net.Pipe: dispatch,
// session and predictor run as in production, with no kernel socket.
type pipeListener struct {
	conns  chan net.Conn
	closed chan struct{}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	select {
	case <-l.closed:
	default:
		close(l.closed)
	}
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

func (p *prober) probeServer(dir string, lu appStreams, model *pythia.TraceSet) (err error) {
	// The pipe's own floor: the same frames, echoed with no server.
	a, b := net.Pipe()
	echoed := make(chan struct{})
	go func() { defer close(echoed); newFrameConn(b).echo() }()
	p.m["server.pipe_echo_rtt_us"], err = p.rttP50(newFrameConn(a), wire.TPredictAt, predictReq)
	err = errors.Join(err, a.Close())
	<-echoed
	if err != nil {
		return err
	}

	traces := filepath.Join(dir, "pipe-traces")
	if err := os.MkdirAll(traces, 0o755); err != nil {
		return err
	}
	if err := tracefile.Save(filepath.Join(traces, lu.name+".pythia"), model); err != nil {
		return err
	}
	srv := server.New(server.Config{TraceDir: traces})
	ln := &pipeListener{conns: make(chan net.Conn, 1), closed: make(chan struct{})}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() { err = errors.Join(err, srv.Shutdown(), <-served) }()
	cli, srvEnd := net.Pipe()
	ln.conns <- srvEnd
	f := newFrameConn(cli)
	defer cli.Close()

	if t, _, err := f.roundTrip(wire.THello, wire.AppendHello(nil, 0)); err != nil || t != wire.THelloOK {
		return fmt.Errorf("pipe handshake: frame %v, err %v", t, err)
	}
	t, resp, err := f.roundTrip(wire.TOpenSession, wire.AppendOpenSession(nil, wire.OpenSession{
		TID: lu.tids[0], Flags: wire.FlagStartAtBeginning, Tenant: lu.name,
	}))
	if err != nil || t != wire.TSessionOpened {
		return fmt.Errorf("pipe open session: frame %v, err %v", t, err)
	}
	opened, err := wire.ParseSessionOpened(resp)
	if err != nil {
		return err
	}

	// Pre-encode the rank's stream as 64-id SubmitBatch frames; replayed in
	// a cycle, the predictor re-anchors once per wrap.
	table := make(map[string]int32, len(model.Events))
	for id, name := range model.Events {
		table[name] = int32(id)
	}
	ids, _ := idStreams(appStreams{tids: lu.tids[:1], byTID: lu.byTID}, func(n string) int32 { return table[n] })
	var frames [][]byte
	for lo := 0; lo < len(ids[0]); lo += 64 {
		frames = append(frames, wire.AppendSubmitBatch(nil, opened.Session, ids[0][lo:min(lo+64, len(ids[0]))]))
	}
	req := wire.AppendPredictAt(nil, opened.Session, queryDist)
	submit := func() error {
		for _, fr := range frames {
			if err := wire.WriteFrame(f.bw, wire.TSubmitBatch, fr); err != nil {
				return err
			}
		}
		_, _, err := f.roundTrip(wire.TPredictAt, req) // the fence: every batch was applied
		return err
	}
	if err := submit(); err != nil {
		return err
	}
	if p.m["server.pipe_predict_rtt_us"], err = p.rttP50(f, wire.TPredictAt, req); err != nil {
		return err
	}
	perPass := p.perOp(1, func() int64 { return timed(func() { err = errors.Join(err, submit()) }) })
	p.m["server.pipe_submit_ns_per_event"] = (perPass - 1e3*p.m["server.pipe_predict_rtt_us"]) / float64(len(ids[0]))
	return err
}

// probeClient measures pythia/client against the in-process daemon on each
// tier, outside any workload's schedule.
func (p *prober) probeClient(dir string, lu appStreams, model *pythia.TraceSet) error {
	stream := lu.byTID[lu.tids[0]]
	shmDir, err := filepath.Abs(dir)
	if err != nil {
		return err
	}
	traces, err := saveTenant(dir, lu.name, model)
	if err != nil {
		return err
	}
	for _, tier := range []string{"unix", "tcp", "shm"} {
		sockDir := filepath.Join(dir, "probe-"+tier)
		if err := os.Mkdir(sockDir, 0o755); err != nil {
			return err
		}
		d, err := startDaemon(sockDir, traces, tier != "tcp")
		if err != nil {
			return err
		}
		err = func() error {
			c, err := client.Dial(d.addr, client.Config{SharedMem: tier == "shm", ShmDir: shmDir})
			if err != nil {
				return err
			}
			defer c.Close()
			if got := c.Transport(); got != tier {
				return fmt.Errorf("probe negotiated %q, want %q", got, tier)
			}
			o, err := c.Oracle(lu.name)
			if err != nil {
				return err
			}
			th := o.Thread(lu.tids[0])
			// submitNs replays the rank stream once and returns the time
			// spent in Submit (the rewind's round trips are left out).
			submitNs := func() int64 {
				th.StartAtBeginning()
				d := timed(func() {
					for _, name := range stream {
						th.Submit(o.Intern(name))
					}
				})
				th.PredictAt(queryDist) // fence, so the next rewind finds the stream applied
				return d
			}
			switch tier {
			case "shm":
				p.m["client.shm_submit_ns"] = p.perOp(len(stream), submitNs)
				// The last replay's first Submit bound a ring: subscribe on
				// it, feed the server enough events to publish, and fence.
				if err := th.Subscribe(queryDist, queryEvery); err != nil {
					return err
				}
				for _, name := range stream[:4*queryEvery] {
					th.Submit(o.Intern(name))
				}
				th.PredictAt(queryDist)
				var buf []pythia.Prediction
				const reps = 1024
				p.m["client.latest_read_ns"] = p.perOp(reps, func() int64 {
					return timed(func() {
						for i := 0; i < reps; i++ {
							buf, _ = th.Latest(buf)
						}
					})
				})
			default:
				if tier == "unix" {
					p.m["client.submit_ns"] = p.perOp(len(stream), submitNs)
				}
				th.StartAtBeginning()
				s := newSamples(1 << 16)
				for start, i := time.Now(), 0; len(s.ns) < 100 || time.Since(start) < p.per; i++ {
					th.Submit(o.Intern(stream[i%len(stream)]))
					if (i+1)%queryEvery == 0 {
						t0 := nowNs()
						th.PredictAt(queryDist)
						s.add(nowNs() - t0)
					}
				}
				p.m["client.rtt_p50_us."+tier] = groupedMedian(s.sorted()) / 1e3
			}
			return c.Err()
		}()
		if err = errors.Join(err, d.stop()); err != nil {
			return fmt.Errorf("client probe on %s: %w", tier, err)
		}
	}
	return nil
}
