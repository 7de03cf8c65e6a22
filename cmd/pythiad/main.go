// Command pythiad serves Pythia predictions over the network: it loads
// traces from a directory on demand and answers Submit/Predict queries for
// many concurrent client runtimes.
//
//	pythia-record -app BT -class small -o traces/bt.pythia
//	pythiad -listen :9137 -listen unix:///run/pythiad.sock -traces traces/
//
// -listen is repeatable and accepts both TCP addresses (host:port or
// tcp://host:port) and unix-domain sockets (unix:///path). Unix sockets are
// created mode 0600 — same-user clients only — and a stale socket file left
// by a crashed daemon is removed automatically, while a live one is refused.
// Clients on a unix listener may additionally negotiate the shared-memory
// ring transport (see client.Config.SharedMem).
//
// Clients connect with the pythia/client package; pythia-loadgen, the
// driver of scripts/serve-smoke.sh, replays recorded streams through it and
// checks that the daemon comes through. Each trace file <name>.pythia in
// the trace directory is one tenant, addressed by name. SIGTERM/SIGINT
// drain the daemon gracefully: in-flight requests are answered, new
// sessions refused, and the process exits once every connection has wound
// down (bounded by -drain-timeout). Draining also removes any unix socket
// files.
//
// Serving resilience is tunable: a dead connection's sessions stay parked
// for -resume-window awaiting the client's resume token, -keepalive reaps
// half-open connections that stop sending frames, and -max-sessions-per-
// tenant / -shed-sessions bound per-tenant admission and shed speculative
// queries (with retry-after hints) under overload. See DESIGN.md §13.
//
// Several daemons become one fleet with -cluster-peers (comma list of every
// daemon, including this one) plus -cluster-self (this daemon's address as
// peers dial it). Tenants are assigned to daemons by rendezvous hashing at
// the epoch given by -cluster-epoch; peers gossip epochs and adopt the
// highest, and an anti-entropy sweep every -cluster-sync ships model
// checkpoints to new owners and keeps -cluster-replicas warm copies per
// tenant. Per-tenant event budgets (-tenant-events-per-sec, -tenant-burst)
// bound what any one tenant absorbs. See DESIGN.md §15.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/server"
	"repro/internal/transport"
	"repro/pythia"
)

// listenList collects repeated -listen flags.
type listenList []string

func (l *listenList) String() string { return fmt.Sprint([]string(*l)) }

func (l *listenList) Set(v string) error {
	*l = append(*l, v)
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pythiad:", err)
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

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("pythiad", flag.ContinueOnError)
	var listens listenList
	fs.Var(&listens, "listen", "address to listen on: host:port or unix:///path (repeatable)")
	var (
		traces         = fs.String("traces", ".", "directory of <tenant>.pythia trace files")
		maxConns       = fs.Int("max-conns", server.DefaultMaxConns, "concurrent connection cap (negative = unlimited)")
		maxSessions    = fs.Int("max-sessions", server.DefaultMaxSessions, "concurrent session cap (negative = unlimited)")
		drainTimeout   = fs.Duration("drain-timeout", server.DefaultDrainTimeout, "bound on graceful shutdown")
		resumeWindow   = fs.Duration("resume-window", server.DefaultResumeWindow, "how long a dead connection's sessions await resume (negative = resume disabled)")
		keepalive      = fs.Duration("keepalive", 0, "reap connections silent for this long (0 = never)")
		tenantSessions = fs.Int("max-sessions-per-tenant", 0, "per-tenant session cap, refused with a retry hint (0 = unlimited)")
		shedSessions   = fs.Int("shed-sessions", 0, "shed speculative queries above this open-session count (0 = never)")
		learn          = fs.Bool("learn", false, "online learning: shadow-record each client's live stream, promote when it out-predicts the serving model, roll back on regression")
		learnEpoch     = fs.Int64("learn-epoch", 0, "scoring epoch in events (0 = default)")
		clusterSelf    = fs.String("cluster-self", "", "this daemon's address as peers dial it (required with -cluster-peers)")
		clusterPeers   = fs.String("cluster-peers", "", "comma-separated fleet daemon addresses, including self (enables cluster mode)")
		clusterEpoch   = fs.Uint64("cluster-epoch", 1, "starting shard-map epoch; peers gossip and adopt the highest")
		clusterRepl    = fs.Int("cluster-replicas", 0, "warm replicas per tenant beyond the owner")
		clusterSync    = fs.Duration("cluster-sync", 5*time.Second, "anti-entropy sweep interval in cluster mode (0 = sweep only on epoch changes)")
		tenantRate     = fs.Int64("tenant-events-per-sec", 0, "per-tenant event budget; queries over budget get retry-after (0 = unlimited)")
		tenantBurst    = fs.Int64("tenant-burst", 0, "per-tenant burst allowance in events (0 = one second of budget)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(listens) == 0 {
		listens = listenList{"127.0.0.1:9137"}
	}

	var fleet []string
	if *clusterPeers != "" {
		for _, a := range strings.Split(*clusterPeers, ",") {
			if a = strings.TrimSpace(a); a != "" {
				fleet = append(fleet, a)
			}
		}
		if *clusterSelf == "" {
			return fmt.Errorf("-cluster-peers requires -cluster-self")
		}
		if *clusterEpoch == 0 {
			return fmt.Errorf("-cluster-epoch must be at least 1")
		}
	}

	info, err := os.Stat(*traces)
	if err != nil {
		return fmt.Errorf("trace directory: %w", err)
	}
	if !info.IsDir() {
		return fmt.Errorf("trace directory: %s is not a directory", *traces)
	}

	var learnPol *pythia.LearnPolicy
	if *learn {
		learnPol = &pythia.LearnPolicy{EpochEvents: *learnEpoch}
	}

	logger := log.New(os.Stderr, "pythiad: ", log.LstdFlags)
	srv := server.New(server.Config{
		Learn:                learnPol,
		TraceDir:             *traces,
		MaxConns:             *maxConns,
		MaxSessions:          *maxSessions,
		DrainTimeout:         *drainTimeout,
		ResumeWindow:         *resumeWindow,
		Keepalive:            *keepalive,
		MaxSessionsPerTenant: *tenantSessions,
		ShedSessions:         *shedSessions,
		TenantEventsPerSec:   *tenantRate,
		TenantBurst:          *tenantBurst,
		Logf:                 logger.Printf,
	})

	lns := make([]net.Listener, 0, len(listens))
	closeAll := func() {
		for _, ln := range lns {
			if cerr := ln.Close(); cerr != nil {
				logger.Printf("closing listener: %v", cerr)
			}
		}
	}
	p := &printer{w: stdout}
	for _, addr := range listens {
		ln, lerr := transport.Listen(addr)
		if lerr != nil {
			closeAll()
			return fmt.Errorf("listening on %s: %w", addr, lerr)
		}
		lns = append(lns, ln)
		p.printf("pythiad: listening on %s://%s (traces: %s)\n",
			ln.Addr().Network(), ln.Addr(), *traces)
	}
	if p.err != nil {
		closeAll()
		return p.err
	}

	// Cluster mode: publish the shard map, learn any higher epoch the
	// peers already agreed on, and keep an anti-entropy sweep running so
	// migrations and warm replicas converge even when a peer was down
	// during an epoch change.
	if len(fleet) > 0 {
		srv.ConfigureCluster(*clusterSelf, fleet, *clusterEpoch, *clusterRepl)
		p.printf("pythiad: cluster mode: self=%s epoch=%d replicas=%d fleet=%s\n",
			*clusterSelf, *clusterEpoch, *clusterRepl, strings.Join(fleet, ","))
		go srv.ProbePeers()
		if *clusterSync > 0 {
			go func() {
				t := time.NewTicker(*clusterSync)
				defer t.Stop()
				for range t.C {
					srv.ProbePeers()
					srv.Sweep()
				}
			}()
		}
	}

	// Shutdown runs at most once, whether triggered by a signal or by a
	// listener failure; either way it closes every listener, so all Serve
	// calls return and socket files are removed.
	var shutdownOnce sync.Once
	shutdownErr := make(chan error, 1)
	shutdown := func() {
		shutdownOnce.Do(func() { shutdownErr <- srv.Shutdown() })
	}

	// SIGTERM/SIGINT trigger a graceful drain; a second signal while
	// draining exits immediately.
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	go func() {
		sig := <-sigs
		logger.Printf("received %s, draining (bound %s)", sig, *drainTimeout)
		go func() {
			sig := <-sigs
			logger.Printf("received second %s, exiting now", sig)
			os.Exit(1)
		}()
		shutdown()
	}()

	serveErrs := make(chan error, len(lns))
	for _, ln := range lns {
		go func(ln net.Listener) { serveErrs <- srv.Serve(ln) }(ln)
	}
	var serveErr error
	for range lns {
		if err := <-serveErrs; err != nil {
			if serveErr == nil {
				serveErr = err
			}
			go shutdown() // stop the remaining listeners too
		}
	}
	shutdown() // no-op unless every Serve returned an error before any drain
	drainErr := <-shutdownErr
	if serveErr != nil {
		return fmt.Errorf("serving: %w", serveErr)
	}
	if drainErr != nil {
		return fmt.Errorf("draining: %w", drainErr)
	}
	p.printf("pythiad: drained, exiting\n")
	return p.err
}
