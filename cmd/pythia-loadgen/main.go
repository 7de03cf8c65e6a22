// Command pythia-loadgen drives a pythiad daemon with replayed application
// streams and checks that the serving stack comes through — the driver of
// scripts/serve-smoke.sh:
//
//	pythia-record -app EP -class small -o traces/EP.pythia
//	pythiad -listen 127.0.0.1:9137 -traces traces/ &
//	pythia-loadgen -addr 127.0.0.1:9137 -tenant EP -app EP -class small -clients 8
//
// Each client opens its own connection, replays every rank's event stream
// of the chosen application (captured with seed 42) through pythia/client,
// and queries the oracle every -predict-every events. The run fails (exit
// 1) if any client sees a protocol or transport error. It times nothing:
// the serve-* workloads of the benchmark (bench/) measure the request path.
//
// -transport selects the tier under test: "tcp" (default), "unix" (pass a
// unix:///path address), or "shm" — the shared-memory rings negotiated over
// a unix connection. In shm mode each thread subscribes with
// Subscribe(-distance, -predict-every) and the query is a Latest read of
// the streamed predictions instead of a PredictAt round trip. The run fails
// if the requested tier did not actually engage, so a fallback can never
// pass for the tier under test.
//
// -chaos routes every connection through an in-process chaosnet proxy that
// injects a sparse deterministic schedule of resets and torn frames
// (-chaos-seed picks the schedule), exercising the client's reconnect and
// replay machinery. Faults stop once every client finishes its replay, and
// the clients are given a convergence window before their errors are
// judged. -repeat N replays the streams N times per client.
//
// -drift replays the captured streams and then replays them reversed — a
// workload phase shift the recorded model mispredicts, which a pythiad
// -learn daemon adopts. -force-promote N forces a promotion N reversed
// events in, and -force-rollback M forces a rollback M events after that —
// the operator override and regression paths. The lifecycle counters come
// from the ModelInfo wire op.
//
// -daemons addr1,addr2,... drives a pythiad fleet instead of a single
// daemon: the shard map is fetched once and every client dials the
// tenant's assignment (owner first, replicas as reconnect fallbacks). Fleet
// mode excludes -chaos, -drift, and shm (those exercise a single
// connection's machinery).
//
// Stdout carries the counters the smoke asserts on:
//
//	EP.small via 127.0.0.1:9137 [tcp]: 8 clients, 3840 events, 960 predictions (960 answered)
//	resilience: 0 reconnects, 0 dropped events, 0 retry-later
//	lifecycle: 2 promotions, 2 rollbacks, 31 shadow epochs
//	client 3 oracle health: degraded (...)
//
// The lifecycle line appears with -drift, a health line for every client
// whose oracle is not Healthy at the end of the run.
package main

import (
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

// clientResult is one client's share of the printed counters.
type clientResult struct {
	events      int64
	predictions int64
	answered    int64
	err         error
	health      pythia.Health
	stats       client.Stats
	model       pythia.ModelInfo // -drift: the oracle's lifecycle counters
}

// replay is the workload every client runs.
type replay struct {
	transport    string
	tenant       string
	predictEvery int
	distance     int
	repeat       int
	chaos        bool
	// phases holds the captured streams, then with -drift their reversal.
	phases        []map[int32][]string
	tids          []int32
	forcePromote  int64 // force a promotion after this many reversed events (0 = off)
	forceRollback int64 // then force a rollback this many events later (0 = off)
	// replayed counts clients down as they finish replaying; under chaos it
	// is the barrier that mutes the proxy.
	replayed sync.WaitGroup
}

// lifecycle is one client's progress through the forced-lifecycle schedule;
// each connection serves its own learning oracle, so each client drives its
// own promote/rollback.
type lifecycle struct {
	events     int64 // reversed events submitted so far
	promoted   bool
	rolledBack bool
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("pythia-loadgen", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", "127.0.0.1:9137", "pythiad address (host:port or unix:///path)")
		transp       = fs.String("transport", "tcp", "transport tier to drive: tcp, unix, or shm")
		tenant       = fs.String("tenant", "", "tenant (trace name) to query (default: -app)")
		appName      = fs.String("app", "EP", "application whose event streams to replay")
		classFlag    = fs.String("class", "small", "working set to replay (small|medium|large)")
		clients      = fs.Int("clients", 8, "concurrent client connections")
		predictEvery = fs.Int("predict-every", 16, "query the oracle every N submitted events")
		distance     = fs.Int("distance", 16, "prediction distance of the queries")
		chaos        = fs.Bool("chaos", false, "inject deterministic network faults between the clients and the daemon")
		chaosSeed    = fs.Int64("chaos-seed", 1, "seed for the chaos fault schedule")
		repeat       = fs.Int("repeat", 1, "replay the captured streams this many times per client (lengthens the run)")
		drift        = fs.Bool("drift", false, "after the normal replay, replay the streams reversed (a workload phase shift)")
		forceProm    = fs.Int64("force-promote", 0, "with -drift: force a promotion after N reversed events per client (0 = scored promotion only)")
		forceRoll    = fs.Int64("force-rollback", 0, "with -drift: force a rollback N events after the forced promotion (0 = off)")
		daemons      = fs.String("daemons", "", "comma-separated pythiad fleet addresses: shard-map-routed multi-daemon mode (excludes -chaos/-drift/shm)")
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
	switch {
	case *clients < 1:
		return fmt.Errorf("-clients must be >= 1")
	case *predictEvery < 1:
		return fmt.Errorf("-predict-every must be >= 1")
	case *repeat < 1:
		return fmt.Errorf("-repeat must be >= 1")
	case *transp != "tcp" && *transp != "unix" && *transp != "shm":
		return fmt.Errorf("-transport must be tcp, unix, or shm (got %q)", *transp)
	case (*forceProm != 0 || *forceRoll != 0) && !*drift:
		return fmt.Errorf("-force-promote/-force-rollback require -drift")
	case *forceRoll != 0 && *forceProm == 0:
		return fmt.Errorf("-force-rollback requires -force-promote")
	case *forceProm < 0 || *forceRoll < 0:
		return fmt.Errorf("-force-promote/-force-rollback must be >= 0")
	case *drift && *transp == "shm":
		// The learn leg is a socket-tier check: its forced lifecycle ops and
		// queries are round trips, which the shm tier's Latest reads are not.
		return fmt.Errorf("-drift requires a socket transport (tcp or unix)")
	case *daemons != "" && (*chaos || *drift):
		return fmt.Errorf("-daemons excludes -chaos and -drift")
	case *daemons != "" && *transp == "shm":
		return fmt.Errorf("-daemons requires a socket transport (tcp or unix)")
	}

	// One deterministic capture, replayed read-only by every client.
	streams := harness.CaptureStreams(app, class, 42)
	rp := &replay{
		transport:     *transp,
		tenant:        *tenant,
		predictEvery:  *predictEvery,
		distance:      *distance,
		repeat:        *repeat,
		chaos:         *chaos,
		phases:        []map[int32][]string{streams},
		forcePromote:  *forceProm,
		forceRollback: *forceRoll,
	}
	for tid := range streams {
		rp.tids = append(rp.tids, tid)
	}
	sort.Slice(rp.tids, func(i, j int) bool { return rp.tids[i] < rp.tids[j] })
	if *drift {
		rev := make(map[int32][]string, len(streams))
		for tid, stream := range streams {
			r := make([]string, len(stream))
			for i, name := range stream {
				r[len(stream)-1-i] = name
			}
			rev[tid] = r
		}
		rp.phases = append(rp.phases, rev)
	}

	target, where := *addr, *addr
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
		target = proxy.Addr()
	}
	if *daemons != "" {
		// Fleet mode: route the tenant by the shard map once — owner first,
		// warm replicas as reconnect fallbacks.
		fleet, ferr := client.DialFleet(*daemons, client.Config{})
		if ferr != nil {
			return fmt.Errorf("fleet: %w", ferr)
		}
		target, where = strings.Join(fleet.Route(*tenant), ","), *daemons
		if cerr := fleet.Close(); cerr != nil {
			return fmt.Errorf("closing fleet: %w", cerr)
		}
	}

	results := make([]clientResult, *clients)
	rp.replayed.Add(*clients)
	if proxy != nil {
		// Once every client has finished its replay, stop injecting faults
		// so the convergence phase (final replays, Err drain) settles.
		go func() {
			rp.replayed.Wait()
			proxy.ClearFaults()
		}()
	}
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(res *clientResult) {
			defer wg.Done()
			rp.runClient(res, target)
		}(&results[i])
	}
	wg.Wait()

	var sum clientResult
	failed := 0
	var firstErr error
	for i := range results {
		r := &results[i]
		sum.events += r.events
		sum.predictions += r.predictions
		sum.answered += r.answered
		sum.stats.Reconnects += r.stats.Reconnects
		sum.stats.DroppedEvents += r.stats.DroppedEvents
		sum.stats.RetryLater += r.stats.RetryLater
		sum.model.Promotions += r.model.Promotions
		sum.model.Rollbacks += r.model.Rollbacks
		sum.model.ShadowEpochs += r.model.ShadowEpochs
		if r.err != nil {
			failed++
			if firstErr == nil {
				firstErr = r.err
			}
		}
	}

	p := &printer{w: stdout}
	p.printf("%s.%s via %s [%s]: %d clients, %d events, %d predictions (%d answered)\n",
		app.Name, class, where, *transp, *clients, sum.events, sum.predictions, sum.answered)
	p.printf("resilience: %d reconnects, %d dropped events, %d retry-later\n",
		sum.stats.Reconnects, sum.stats.DroppedEvents, sum.stats.RetryLater)
	if *drift {
		p.printf("lifecycle: %d promotions, %d rollbacks, %d shadow epochs\n",
			sum.model.Promotions, sum.model.Rollbacks, sum.model.ShadowEpochs)
	}
	for i := range results {
		if h := results[i].health; h.State != pythia.Healthy {
			p.printf("client %d oracle health: %s (%s)\n", i, h.State, h.Cause)
		}
	}
	if firstErr != nil {
		return fmt.Errorf("%d of %d clients saw protocol errors, first: %w", failed, *clients, firstErr)
	}
	return p.err
}

// retrySetup runs one connection-setup round trip. Under chaos the faults
// hit setup too, so it retries until the exchange slips between them.
func retrySetup[T any](chaos bool, op func() (T, error)) (T, error) {
	for attempt := 0; ; attempt++ {
		v, err := op()
		if err == nil || !chaos || attempt >= 200 {
			return v, err
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// runClient replays every phase over one connection. Under chaos the replay
// tolerates transient failures (reconnect and replay cover them) and a
// convergence window after the stream drains the client back to a clean
// Err. With -drift the connection's ModelInfo is read at the end.
func (rp *replay) runClient(res *clientResult, addr string) {
	replayDone := false
	defer func() {
		if !replayDone {
			rp.replayed.Done()
		}
	}()
	cfg := client.Config{SharedMem: rp.transport == "shm"}
	if rp.chaos {
		cfg.ReconnectMinDelay = 5 * time.Millisecond
	}
	c, err := retrySetup(rp.chaos, func() (*client.Client, error) { return client.Dial(addr, cfg) })
	if err != nil {
		res.err = err
		return
	}
	defer func() {
		if cerr := c.Close(); cerr != nil && res.err == nil {
			res.err = cerr
		}
	}()
	// A fallback tier must not pass for the one under test.
	if got := c.Transport(); got != rp.transport {
		res.err = fmt.Errorf("negotiated transport %q, want %q", got, rp.transport)
		return
	}
	o, err := retrySetup(rp.chaos, func() (*client.Oracle, error) { return c.Oracle(rp.tenant) })
	if err != nil {
		res.err = err
		return
	}
	var lc lifecycle
	for phase, streams := range rp.phases {
		for r := 0; r < rp.repeat; r++ {
			for _, tid := range rp.tids {
				rp.runThread(res, c, o, tid, streams[tid], phase == 1, &lc)
				if res.err != nil {
					return
				}
			}
		}
	}
	if len(rp.phases) > 1 {
		if mi, merr := o.ModelInfo(); merr == nil {
			res.model = mi
		} else if !rp.chaos {
			res.err = fmt.Errorf("model info: %w", merr)
			return
		}
	}
	replayDone = true
	rp.replayed.Done()
	if rp.chaos {
		// Faults stop once every client reaches this point; give the
		// reconnect/replay machinery a window to converge before judging Err.
		rp.replayed.Wait()
		deadline := time.Now().Add(15 * time.Second)
		for {
			for _, tid := range rp.tids {
				o.Thread(tid).Flush()
			}
			if c.Err() == nil || time.Now().After(deadline) {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	res.health = o.Health()
	res.err = c.Err()
	res.stats = c.Stats()
}

// runThread replays one rank's stream once, querying the oracle on the
// predictEvery cadence. Under chaos the replay is paced while the client is
// offline: fail-open Submits cost nanoseconds, so without the pacing an
// outage longer than the stream would race past unreplayed. Reversed
// (drifted) events drive the forced promote/rollback schedule.
func (rp *replay) runThread(res *clientResult, c *client.Client, o *client.Oracle, tid int32, stream []string, drifted bool, lc *lifecycle) {
	th := o.Thread(tid)
	th.StartAtBeginning()
	subscribed := false
	var buf []pythia.Prediction
	for i, name := range stream {
		if rp.chaos && c.Err() != nil {
			time.Sleep(time.Millisecond)
		}
		th.Submit(o.Intern(name))
		res.events++
		if drifted {
			lc.events++
			if err := rp.stepLifecycle(o, lc); err != nil && !rp.chaos {
				res.err = err
				return
			}
		}
		if rp.transport == "shm" && !subscribed {
			// The first Submit bound the thread's ring; from here the server
			// streams PredictSequence(distance) every predictEvery events
			// into the shared slot. Offline or mid-rebind under chaos: retry
			// on a later event.
			if serr := th.Subscribe(rp.distance, rp.predictEvery); serr == nil {
				subscribed = true
			} else if !rp.chaos {
				res.err = serr
				return
			}
		}
		if (i+1)%rp.predictEvery != 0 {
			continue
		}
		var ok bool
		if rp.transport == "shm" {
			buf, ok = th.Latest(buf)
			ok = ok && len(buf) > 0
		} else {
			_, ok = th.PredictAt(rp.distance)
		}
		res.predictions++
		if ok {
			res.answered++
		}
	}
}

// stepLifecycle advances the forced promote/rollback schedule after one
// reversed event: promote once at forcePromote events, roll back once
// forceRollback events later.
func (rp *replay) stepLifecycle(o *client.Oracle, lc *lifecycle) error {
	if rp.forcePromote > 0 && !lc.promoted && lc.events >= rp.forcePromote {
		lc.promoted = true
		if err := forceOp(o.Promote); err != nil {
			return fmt.Errorf("force-promote: %w", err)
		}
	}
	if rp.forceRollback > 0 && lc.promoted && !lc.rolledBack &&
		lc.events >= rp.forcePromote+rp.forceRollback {
		lc.rolledBack = true
		if err := forceOp(o.Rollback); err != nil {
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
func forceOp(op func() (uint64, error)) error {
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := op()
		var re *client.RemoteError
		if err == nil || !errors.As(err, &re) || re.Code != wire.CodeLifecycle ||
			time.Now().After(deadline) {
			return err
		}
		time.Sleep(20 * time.Millisecond)
	}
}
