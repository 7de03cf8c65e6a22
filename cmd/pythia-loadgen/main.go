// Command pythia-loadgen drives a pythiad daemon with a closed-loop replay
// workload and reports throughput and latency:
//
//	pythia-record -app EP -class small -o traces/EP.pythia
//	pythiad -listen 127.0.0.1:9137 -traces traces/ &
//	pythia-loadgen -addr 127.0.0.1:9137 -tenant EP -app EP -class small -clients 8 -o report.json
//
// Each client opens its own connection, replays every rank's event stream
// of the chosen application through pythia/client, and issues a timed
// PredictAt round trip every -predict-every events. The run fails (exit 1)
// if any client sees a protocol or transport error.
//
// -transport selects the tier under test: "tcp" (default), "unix" (pass a
// unix:///path address), or "shm" — the shared-memory rings negotiated over
// a unix connection. In shm mode each thread subscribes with
// Subscribe(-distance, -predict-every) and the timed operation is a Latest
// read of the streamed predictions instead of a PredictAt round trip. The
// run fails if the requested tier did not actually engage, so a fallback
// can never masquerade as a measurement.
//
// -chaos routes every connection through an in-process chaosnet proxy that
// injects a sparse deterministic schedule of resets and torn frames
// (-chaos-seed picks the schedule), exercising the client's reconnect and
// replay machinery under load. Faults stop once every client finishes its
// replay, the clients are given a convergence window, and the JSON report's
// reconnects / dropped_events / retry_later counters show what the run
// survived.
//
// -drift replays the captured streams normally (phase 1) and then replays
// them reversed (phase 2) — a workload phase shift the recorded model
// mispredicts. The timed query becomes a next-event self-check, so the
// report carries per-phase prediction accuracy; against a pythiad -learn
// daemon, phase-2 accuracy recovering is the online-learning lifecycle
// visibly adopting the drifted workload, and the report's promotions /
// rollbacks / shadow_epochs counters come from the ModelInfo wire op.
// -force-promote N forces a promotion N phase-2 events in, and
// -force-rollback M forces a rollback M events after that — the operator
// override and regression paths, exercised end to end by serve-smoke.sh.
//
// -daemons addr1,addr2,... drives a pythiad fleet instead of a single
// daemon: the shard map is fetched once, -tenants N spreads the clients
// over N tenants named <tenant>-00..<tenant>-NN, and each client dials its
// tenant's assignment (owner first, replicas as reconnect fallbacks). The
// report gains a per-daemon breakdown — events/s, p50/p99, retry-later per
// fleet member. Fleet mode excludes -chaos, -drift, and shm (those exercise
// a single connection's machinery).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/apps"
	"repro/internal/chaosnet"
	"repro/internal/harness"
	"repro/internal/wire"
	"repro/pythia"
	"repro/pythia/client"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pythia-loadgen:", err)
		os.Exit(1)
	}
}

// printer accumulates the first write error so the reporting code can print
// unconditionally and surface I/O failures once, through run's return.
type printer struct {
	w   io.Writer
	err error
}

func (p *printer) printf(format string, args ...any) {
	if p.err == nil {
		_, p.err = fmt.Fprintf(p.w, format, args...)
	}
}

// clientResult is one load client's contribution to the aggregate.
type clientResult struct {
	daemon      string // fleet mode: owner daemon this client's load lands on
	events      int64
	predictions int64
	answered    int64
	latencies   []time.Duration
	err         error
	health      pythia.Health
	stats       client.Stats
	// Drift-mode extras: per-phase next-event self-check tallies and the
	// final ModelInfo snapshot of this connection's oracle.
	checked [2]int64
	correct [2]int64
	model   pythia.ModelInfo
	modelOK bool
}

// driftRun carries the -drift configuration shared by every client: the
// reversed phase-2 streams and the forced-lifecycle schedule.
type driftRun struct {
	rev           map[int32][]string
	forcePromote  int64 // force a promotion after this many phase-2 events (0 = off)
	forceRollback int64 // then force a rollback this many events later (0 = off)
}

// lifecycleCtl is one client's progress through the forced-lifecycle
// schedule; each connection serves its own learning oracle, so each client
// drives its own promote/rollback.
type lifecycleCtl struct {
	phase2Events int64
	promoted     bool
	rolledBack   bool
}

// driftReport is the drift-mode section of the JSON report: per-phase
// self-check accuracy plus the lifecycle counters summed over every
// client's oracle.
type driftReport struct {
	Phase1Checked  int64   `json:"phase1_checked"`
	Phase1Correct  int64   `json:"phase1_correct"`
	Phase1Accuracy float64 `json:"phase1_accuracy"`
	Phase2Checked  int64   `json:"phase2_checked"`
	Phase2Correct  int64   `json:"phase2_correct"`
	Phase2Accuracy float64 `json:"phase2_accuracy"`
	Promotions     uint64  `json:"promotions"`
	Rollbacks      uint64  `json:"rollbacks"`
	ShadowEpochs   uint64  `json:"shadow_epochs"`
}

// daemonReport is one fleet member's share of a multi-daemon run.
type daemonReport struct {
	Addr         string  `json:"addr"`
	Clients      int     `json:"clients"`
	Events       int64   `json:"events"`
	EventsPerS   float64 `json:"events_per_s"`
	LatencyP50Us float64 `json:"latency_p50_us"`
	LatencyP99Us float64 `json:"latency_p99_us"`
	RetryLater   uint64  `json:"retry_later"`
}

// benchReport is the layout of the -o JSON report.
type benchReport struct {
	Config struct {
		App          string   `json:"app"`
		Class        string   `json:"class"`
		Tenant       string   `json:"tenant"`
		Transport    string   `json:"transport"`
		Clients      int      `json:"clients"`
		PredictEvery int      `json:"predict_every"`
		Distance     int      `json:"distance"`
		Seed         int64    `json:"seed"`
		Chaos        bool     `json:"chaos,omitempty"`
		ChaosSeed    int64    `json:"chaos_seed,omitempty"`
		Repeat       int      `json:"repeat,omitempty"`
		Drift        bool     `json:"drift,omitempty"`
		ForcePromote int64    `json:"force_promote,omitempty"`
		ForceRollbk  int64    `json:"force_rollback,omitempty"`
		Daemons      []string `json:"daemons,omitempty"`
		Tenants      int      `json:"tenants,omitempty"`
	} `json:"config"`
	Results struct {
		WallS          float64 `json:"wall_s"`
		Events         int64   `json:"events"`
		Predictions    int64   `json:"predictions"`
		Answered       int64   `json:"answered"`
		EventsPerS     float64 `json:"events_per_s"`
		PredictsPerS   float64 `json:"predictions_per_s"`
		LatencyP50Us   float64 `json:"latency_p50_us"`
		LatencyP99Us   float64 `json:"latency_p99_us"`
		LatencyMaxUs   float64 `json:"latency_max_us"`
		ProtocolErrors int     `json:"protocol_errors"`
		Reconnects     uint64  `json:"reconnects"`
		DroppedEvents  uint64  `json:"dropped_events"`
		RetryLater     uint64  `json:"retry_later"`

		PerDaemon []daemonReport `json:"per_daemon,omitempty"`
		Drift     *driftReport   `json:"drift,omitempty"`
	} `json:"results"`
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("pythia-loadgen", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", "127.0.0.1:9137", "pythiad address (host:port or unix:///path)")
		transp       = fs.String("transport", "tcp", "transport tier to measure: tcp, unix, or shm")
		tenant       = fs.String("tenant", "", "tenant (trace name) to query (default: -app)")
		appName      = fs.String("app", "EP", "application whose event streams to replay")
		classFlag    = fs.String("class", "small", "working set to replay (small|medium|large)")
		seed         = fs.Int64("seed", 42, "seed for the replayed execution")
		clients      = fs.Int("clients", 8, "concurrent client connections")
		predictEvery = fs.Int("predict-every", 16, "issue a timed PredictAt every N submitted events")
		distance     = fs.Int("distance", 16, "prediction distance for the timed queries")
		out          = fs.String("o", "", "write a JSON report to this file")
		chaos        = fs.Bool("chaos", false, "inject deterministic network faults between the clients and the daemon")
		chaosSeed    = fs.Int64("chaos-seed", 1, "seed for the chaos fault schedule")
		repeat       = fs.Int("repeat", 1, "replay the captured streams this many times per client (lengthens the run)")
		drift        = fs.Bool("drift", false, "after the normal replay, replay the streams reversed (a workload phase shift) and self-check per-phase accuracy")
		forceProm    = fs.Int64("force-promote", 0, "with -drift: force a promotion after N phase-2 events per client (0 = scored promotion only)")
		forceRoll    = fs.Int64("force-rollback", 0, "with -drift: force a rollback N events after the forced promotion (0 = off)")
		daemons      = fs.String("daemons", "", "comma-separated pythiad fleet addresses: shard-map-routed multi-daemon mode (excludes -chaos/-drift/shm)")
		tenants      = fs.Int("tenants", 1, "with -daemons: spread clients over N tenants named <tenant>-00..")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	app, err := apps.ByName(*appName)
	if err != nil {
		return err
	}
	class, err := apps.ParseClass(*classFlag)
	if err != nil {
		return err
	}
	if *tenant == "" {
		*tenant = app.Name
	}
	if *clients < 1 {
		return fmt.Errorf("-clients must be >= 1")
	}
	if *predictEvery < 1 {
		return fmt.Errorf("-predict-every must be >= 1")
	}
	if *repeat < 1 {
		return fmt.Errorf("-repeat must be >= 1")
	}
	switch *transp {
	case "tcp", "unix", "shm":
	default:
		return fmt.Errorf("-transport must be tcp, unix, or shm (got %q)", *transp)
	}
	if (*forceProm != 0 || *forceRoll != 0) && !*drift {
		return fmt.Errorf("-force-promote/-force-rollback require -drift")
	}
	if *forceRoll != 0 && *forceProm == 0 {
		return fmt.Errorf("-force-rollback requires -force-promote")
	}
	if *forceProm < 0 || *forceRoll < 0 {
		return fmt.Errorf("-force-promote/-force-rollback must be >= 0")
	}
	if *drift && *transp == "shm" {
		// The self-check needs a synchronous PredictAt(1) round trip; the
		// shm tier streams predictions at a fixed distance instead.
		return fmt.Errorf("-drift requires a socket transport (tcp or unix)")
	}
	// In fleet mode -tenant may itself be a comma-separated list of tenant
	// names (client i uses list[i%len]); -tenants N instead derives N names
	// as <tenant>-00... The explicit list lets a caller hand-pick a tenant
	// set (e.g. one the shard map spreads evenly — see pythia-shardplan).
	tenantList := []string{*tenant}
	if strings.Contains(*tenant, ",") {
		tenantList = tenantList[:0]
		for _, t := range strings.Split(*tenant, ",") {
			if t = strings.TrimSpace(t); t != "" {
				tenantList = append(tenantList, t)
			}
		}
		if len(tenantList) == 0 {
			return fmt.Errorf("-tenant lists no tenant names")
		}
	}
	if *daemons != "" {
		if *chaos || *drift {
			return fmt.Errorf("-daemons excludes -chaos and -drift")
		}
		if *transp == "shm" {
			return fmt.Errorf("-daemons requires a socket transport (tcp or unix)")
		}
		if *tenants < 1 {
			return fmt.Errorf("-tenants must be >= 1")
		}
		if *tenants > 1 && len(tenantList) > 1 {
			return fmt.Errorf("-tenants and a -tenant list are mutually exclusive")
		}
	} else {
		if *tenants != 1 {
			return fmt.Errorf("-tenants requires -daemons")
		}
		if len(tenantList) > 1 {
			return fmt.Errorf("a -tenant list requires -daemons")
		}
	}

	// One deterministic capture, replayed read-only by every client.
	streams := harness.CaptureStreams(app, class, *seed)
	tids := make([]int32, 0, len(streams))
	for tid := range streams {
		tids = append(tids, tid)
	}
	sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })

	var dr *driftRun
	if *drift {
		dr = &driftRun{
			rev:           make(map[int32][]string, len(streams)),
			forcePromote:  *forceProm,
			forceRollback: *forceRoll,
		}
		for tid, stream := range streams {
			rev := make([]string, len(stream))
			for i, name := range stream {
				rev[len(stream)-1-i] = name
			}
			dr.rev[tid] = rev
		}
	}

	dialAddr := *addr
	var proxy *chaosnet.Proxy
	if *chaos {
		// Sparse schedule: frequent enough to force reconnects under load,
		// sparse enough that the post-replay convergence window settles.
		proxy, err = chaosnet.New(*addr, chaosnet.Config{
			Seed:       *chaosSeed,
			ResetEvery: 401,
			TornEvery:  997,
		})
		if err != nil {
			return fmt.Errorf("chaos proxy: %w", err)
		}
		defer func() {
			if cerr := proxy.Close(); cerr != nil {
				fmt.Fprintln(os.Stderr, "pythia-loadgen: closing chaos proxy:", cerr)
			}
		}()
		dialAddr = proxy.Addr()
	}

	// Fleet mode: fetch the shard map once and route each client's tenant
	// to its assignment — owner first, warm replicas as reconnect
	// fallbacks. Every client still opens its own connection so the
	// per-daemon breakdown attributes load connection by connection.
	var fleet *client.Fleet
	if *daemons != "" {
		fleet, err = client.DialFleet(*daemons, client.Config{})
		if err != nil {
			return fmt.Errorf("fleet: %w", err)
		}
		defer func() {
			if cerr := fleet.Close(); cerr != nil {
				fmt.Fprintln(os.Stderr, "pythia-loadgen: closing fleet:", cerr)
			}
		}()
	}

	results := make([]clientResult, *clients)
	start := time.Now()
	var wg, replayWG sync.WaitGroup
	replayWG.Add(*clients)
	if *chaos {
		// Once every client has finished its replay, stop injecting faults
		// so the convergence phase (final replays, Err drain) settles.
		go func() {
			replayWG.Wait()
			proxy.ClearFaults()
		}()
	}
	for ci := 0; ci < *clients; ci++ {
		target, ct := dialAddr, *tenant
		if fleet != nil {
			if len(tenantList) > 1 {
				ct = tenantList[ci%len(tenantList)]
			} else if *tenants > 1 {
				ct = fmt.Sprintf("%s-%02d", *tenant, ci%*tenants)
			}
			route := fleet.Route(ct)
			target = strings.Join(route, ",")
			results[ci].daemon = route[0]
		}
		wg.Add(1)
		go func(res *clientResult, target, ct string) {
			defer wg.Done()
			runClient(res, target, ct, *transp, streams, tids, *predictEvery, *distance, *repeat, *chaos, dr, &replayWG)
		}(&results[ci], target, ct)
	}
	wg.Wait()
	wall := time.Since(start)

	var rep benchReport
	rep.Config.App = app.Name
	rep.Config.Class = class.String()
	rep.Config.Tenant = *tenant
	rep.Config.Transport = *transp
	rep.Config.Clients = *clients
	rep.Config.PredictEvery = *predictEvery
	rep.Config.Distance = *distance
	rep.Config.Seed = *seed
	rep.Config.Chaos = *chaos
	rep.Config.ChaosSeed = *chaosSeed
	if !*chaos {
		rep.Config.ChaosSeed = 0
	}
	if *repeat > 1 {
		rep.Config.Repeat = *repeat
	}
	rep.Config.Drift = *drift
	rep.Config.ForcePromote = *forceProm
	rep.Config.ForceRollbk = *forceRoll
	if fleet != nil {
		rep.Config.Daemons = fleet.Map().Daemons
		if len(rep.Config.Daemons) == 0 {
			rep.Config.Daemons = strings.Split(*daemons, ",")
		}
		rep.Config.Tenants = *tenants
		if len(tenantList) > 1 {
			rep.Config.Tenants = len(tenantList)
		}
	}

	var all []time.Duration
	var firstErr error
	for i := range results {
		r := &results[i]
		rep.Results.Events += r.events
		rep.Results.Predictions += r.predictions
		rep.Results.Answered += r.answered
		rep.Results.Reconnects += r.stats.Reconnects
		rep.Results.DroppedEvents += r.stats.DroppedEvents
		rep.Results.RetryLater += r.stats.RetryLater
		all = append(all, r.latencies...)
		if r.err != nil {
			rep.Results.ProtocolErrors++
			if firstErr == nil {
				firstErr = r.err
			}
		}
	}
	rep.Results.WallS = wall.Seconds()
	if wall > 0 {
		rep.Results.EventsPerS = float64(rep.Results.Events) / wall.Seconds()
		rep.Results.PredictsPerS = float64(rep.Results.Predictions) / wall.Seconds()
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	rep.Results.LatencyP50Us = quantileUs(all, 0.50)
	rep.Results.LatencyP99Us = quantileUs(all, 0.99)
	if len(all) > 0 {
		rep.Results.LatencyMaxUs = float64(all[len(all)-1].Nanoseconds()) / 1e3
	}
	if fleet != nil {
		byDaemon := make(map[string][]*clientResult)
		for i := range results {
			byDaemon[results[i].daemon] = append(byDaemon[results[i].daemon], &results[i])
		}
		addrs := make([]string, 0, len(byDaemon))
		for a := range byDaemon {
			addrs = append(addrs, a)
		}
		sort.Strings(addrs)
		for _, a := range addrs {
			d := daemonReport{Addr: a}
			var lats []time.Duration
			for _, r := range byDaemon[a] {
				d.Clients++
				d.Events += r.events
				d.RetryLater += r.stats.RetryLater
				lats = append(lats, r.latencies...)
			}
			if wall > 0 {
				d.EventsPerS = float64(d.Events) / wall.Seconds()
			}
			sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
			d.LatencyP50Us = quantileUs(lats, 0.50)
			d.LatencyP99Us = quantileUs(lats, 0.99)
			rep.Results.PerDaemon = append(rep.Results.PerDaemon, d)
		}
	}
	if *drift {
		d := &driftReport{}
		for i := range results {
			r := &results[i]
			d.Phase1Checked += r.checked[0]
			d.Phase1Correct += r.correct[0]
			d.Phase2Checked += r.checked[1]
			d.Phase2Correct += r.correct[1]
			if r.modelOK {
				d.Promotions += r.model.Promotions
				d.Rollbacks += r.model.Rollbacks
				d.ShadowEpochs += r.model.ShadowEpochs
			}
		}
		if d.Phase1Checked > 0 {
			d.Phase1Accuracy = float64(d.Phase1Correct) / float64(d.Phase1Checked)
		}
		if d.Phase2Checked > 0 {
			d.Phase2Accuracy = float64(d.Phase2Correct) / float64(d.Phase2Checked)
		}
		rep.Results.Drift = d
	}

	where := *addr
	if fleet != nil {
		where = *daemons
	}
	p := &printer{w: stdout}
	p.printf("%s.%s via %s [%s]: %d clients, %d events, %d predictions (%d answered) in %.2fs\n",
		app.Name, class, where, *transp, *clients, rep.Results.Events, rep.Results.Predictions,
		rep.Results.Answered, rep.Results.WallS)
	p.printf("throughput: %.0f events/s, %.0f predictions/s\n",
		rep.Results.EventsPerS, rep.Results.PredictsPerS)
	p.printf("predict latency: p50 %.1fus  p99 %.1fus  max %.1fus\n",
		rep.Results.LatencyP50Us, rep.Results.LatencyP99Us, rep.Results.LatencyMaxUs)
	if *chaos || rep.Results.Reconnects+rep.Results.DroppedEvents+rep.Results.RetryLater > 0 {
		p.printf("resilience: %d reconnects, %d dropped events, %d retry-later\n",
			rep.Results.Reconnects, rep.Results.DroppedEvents, rep.Results.RetryLater)
	}
	for _, d := range rep.Results.PerDaemon {
		p.printf("daemon %s: %d clients, %d events (%.0f events/s), p50 %.1fus p99 %.1fus, %d retry-later\n",
			d.Addr, d.Clients, d.Events, d.EventsPerS, d.LatencyP50Us, d.LatencyP99Us, d.RetryLater)
	}
	if d := rep.Results.Drift; d != nil {
		p.printf("drift accuracy: phase1 %.1f%% (%d/%d), phase2 %.1f%% (%d/%d)\n",
			100*d.Phase1Accuracy, d.Phase1Correct, d.Phase1Checked,
			100*d.Phase2Accuracy, d.Phase2Correct, d.Phase2Checked)
		p.printf("lifecycle: %d promotions, %d rollbacks, %d shadow epochs\n",
			d.Promotions, d.Rollbacks, d.ShadowEpochs)
	}
	for i := range results {
		if h := results[i].health; h.State != pythia.Healthy {
			p.printf("client %d oracle health: %s (%s)\n", i, h.State, h.Cause)
		}
	}

	if *out != "" {
		blob, merr := json.MarshalIndent(&rep, "", "  ")
		if merr != nil {
			return fmt.Errorf("encoding report: %w", merr)
		}
		blob = append(blob, '\n')
		if werr := os.WriteFile(*out, blob, 0o644); werr != nil {
			return fmt.Errorf("writing report: %w", werr)
		}
		p.printf("report -> %s\n", *out)
	}
	if firstErr != nil {
		return fmt.Errorf("%d of %d clients saw protocol errors, first: %w",
			rep.Results.ProtocolErrors, *clients, firstErr)
	}
	return p.err
}

// runClient replays every rank's stream over one connection. On the socket
// tiers the timed operation is a PredictAt round trip every predictEvery
// events; on shm it is a Latest read of the streamed predictions the server
// pushes at the same cadence. Under chaos the replay tolerates transient
// failures (reconnect and replay cover them) and a convergence window after
// the stream drains the client back to a clean Err. In drift mode the whole
// replay runs twice — recorded streams, then reversed streams — with the
// timed operation swapped for a next-event self-check, and the connection's
// ModelInfo snapshot is taken at the end.
func runClient(res *clientResult, addr, tenant, transp string, streams map[int32][]string, tids []int32, predictEvery, distance, repeat int, chaos bool, dr *driftRun, replayWG *sync.WaitGroup) {
	replayDone := false
	defer func() {
		if !replayDone {
			replayWG.Done()
		}
	}()
	cfg := client.Config{SharedMem: transp == "shm"}
	if chaos {
		cfg.ReconnectMinDelay = 5 * time.Millisecond
	}
	// Under chaos the faults hit the setup round trips too; retry until the
	// handshake slips between them.
	var c *client.Client
	var err error
	for attempt := 0; ; attempt++ {
		c, err = client.Dial(addr, cfg)
		if err == nil {
			break
		}
		if !chaos || attempt >= 200 {
			res.err = err
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	defer func() {
		if cerr := c.Close(); cerr != nil && res.err == nil {
			res.err = cerr
		}
	}()
	// A fallback tier must not masquerade as the one under test.
	if got := c.Transport(); got != transp {
		res.err = fmt.Errorf("negotiated transport %q, want %q", got, transp)
		return
	}
	var o *client.Oracle
	for attempt := 0; ; attempt++ {
		o, err = c.Oracle(tenant)
		if err == nil {
			break
		}
		if !chaos || attempt >= 200 {
			res.err = err
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	var predBuf []pythia.Prediction
	phases := 1
	if dr != nil {
		phases = 2
	}
	var lc lifecycleCtl
	for phase := 0; phase < phases; phase++ {
		src := streams
		if phase == 1 {
			src = dr.rev
		}
		for r := 0; r < repeat; r++ {
			for _, tid := range tids {
				runThread(res, c, o, tid, src[tid], transp, predictEvery, distance, chaos, dr, phase, &lc, &predBuf)
				if res.err != nil {
					return
				}
			}
		}
	}
	if dr != nil {
		if mi, merr := o.ModelInfo(); merr == nil {
			res.model = mi
			res.modelOK = true
		} else if !chaos {
			res.err = fmt.Errorf("model info: %w", merr)
			return
		}
	}
	replayDone = true
	replayWG.Done()
	if chaos {
		// Faults stop once every client reaches this point (the replayWG
		// barrier mutes the proxy); give the reconnect/replay machinery a
		// window to converge before judging Err.
		replayWG.Wait()
		deadline := time.Now().Add(15 * time.Second)
		for {
			for _, tid := range tids {
				o.Thread(tid).Flush()
			}
			if c.Err() == nil {
				break
			}
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	res.health = o.Health()
	res.err = c.Err()
	res.stats = c.Stats()
}

// runThread replays one rank's stream once, issuing the timed operation on
// the predictEvery cadence. Under chaos the replay is paced while the client
// is offline: fail-open Submits cost nanoseconds, so without the pacing an
// outage longer than the stream would race past unreplayed. In drift mode
// the timed operation is a PredictAt(1) round trip checked against the next
// event the replay is about to submit, and phase-2 events drive the forced
// promote/rollback schedule.
func runThread(res *clientResult, c *client.Client, o *client.Oracle, tid int32, stream []string, transp string, predictEvery, distance int, chaos bool, dr *driftRun, phase int, lc *lifecycleCtl, predBuf *[]pythia.Prediction) {
	th := o.Thread(tid)
	th.StartAtBeginning()
	subscribed := false
	for i, name := range stream {
		if chaos && c.Err() != nil {
			time.Sleep(time.Millisecond)
		}
		th.Submit(o.Intern(name))
		res.events++
		if dr != nil && phase == 1 {
			lc.phase2Events++
			if err := stepLifecycle(o, dr, lc); err != nil {
				if !chaos {
					res.err = err
					return
				}
			}
		}
		if transp == "shm" && !subscribed {
			// The first Submit bound the thread's ring; from here the
			// server streams PredictSequence(distance) every
			// predictEvery events into the shared slot.
			if serr := th.Subscribe(distance, predictEvery); serr != nil {
				if !chaos {
					res.err = serr
					return
				}
				// Offline or mid-rebind: retry on a later event.
			} else {
				subscribed = true
			}
		}
		if (i+1)%predictEvery != 0 {
			continue
		}
		t0 := time.Now()
		var ok bool
		switch {
		case dr != nil:
			pred, got := th.PredictAt(1)
			ok = got
			if i+1 < len(stream) {
				res.checked[phase]++
				if got && pred.EventID == int32(o.Intern(stream[i+1])) {
					res.correct[phase]++
				}
			}
		case transp == "shm":
			*predBuf, ok = th.Latest(*predBuf)
			ok = ok && len(*predBuf) > 0
		default:
			_, ok = th.PredictAt(distance)
		}
		res.latencies = append(res.latencies, time.Since(t0))
		res.predictions++
		if ok {
			res.answered++
		}
	}
}

// stepLifecycle advances the forced promote/rollback schedule after one
// phase-2 event: promote once at forcePromote events, roll back once
// forceRollback events later.
func stepLifecycle(o *client.Oracle, dr *driftRun, lc *lifecycleCtl) error {
	if dr.forcePromote > 0 && !lc.promoted && lc.phase2Events >= dr.forcePromote {
		lc.promoted = true
		if _, err := forceOp(o.Promote); err != nil {
			return fmt.Errorf("force-promote: %w", err)
		}
	}
	if dr.forceRollback > 0 && lc.promoted && !lc.rolledBack &&
		lc.phase2Events >= dr.forcePromote+dr.forceRollback {
		lc.rolledBack = true
		if _, err := forceOp(o.Rollback); err != nil {
			return fmt.Errorf("force-rollback: %w", err)
		}
	}
	return nil
}

// forceOp runs a forced lifecycle operation, retrying CodeLifecycle
// refusals briefly: the shadow's first candidate materializes
// asynchronously after an epoch completes, so a forced promotion scheduled
// right at the epoch boundary can race the server's judge by a few
// milliseconds. Any other error — and a refusal that persists past the
// window — is returned as-is.
func forceOp(op func() (uint64, error)) (uint64, error) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		gen, err := op()
		var re *client.RemoteError
		if err == nil || !errors.As(err, &re) || re.Code != wire.CodeLifecycle ||
			time.Now().After(deadline) {
			return gen, err
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// quantileUs returns the q-quantile of sorted latencies in microseconds.
func quantileUs(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q * float64(len(sorted)-1))
	return float64(sorted[idx].Nanoseconds()) / 1e3
}
