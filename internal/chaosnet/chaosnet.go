// Package chaosnet is a deterministic in-process network-fault proxy for
// testing the serving stack's resilience. A Proxy sits between a client
// and a pythiad listener, relaying bytes while injecting a seeded,
// reproducible schedule of faults: added latency, stalls, torn writes
// (a partial chunk followed by an abrupt close), mid-stream resets, and
// silent byte drops. Partitions are modelled explicitly with CutAll (kill
// every live connection now) and SetEnabled(false) (refuse new ones).
//
// Determinism contract: every fault decision is a pure function of
// (Config.Seed, connection index, direction, chunk index). Two runs that
// accept connections in the same order and read the same chunk sequence
// inject the same faults at the same points. Chunk boundaries themselves
// depend on kernel scheduling, so byte-exact schedules require the writer
// to pace its frames (the chaos tests do); what never varies is the
// decision sequence per chunk.
package chaosnet

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport"
)

// Config selects the fault schedule. Zero values disable each fault, so
// the zero Config is a transparent relay. "Every n" fields fire on every
// nth relayed chunk per direction (n ≥ 1; 1 means every chunk).
type Config struct {
	// Seed drives the per-connection PRNGs. Two proxies with the same
	// seed inject the same schedule.
	Seed int64
	// Latency delays every relayed chunk.
	Latency time.Duration
	// StallEvery pauses the stream for StallFor on every nth chunk —
	// long enough, with keepalive enforcement, to look half-open.
	StallEvery int
	StallFor   time.Duration
	// TornEvery forwards only a prefix of every nth chunk and then kills
	// the connection, so the receiver sees a torn frame.
	TornEvery int
	// ResetEvery kills the connection abruptly on every nth chunk,
	// before forwarding it.
	ResetEvery int
	// DropEvery silently discards every nth chunk. The byte stream skips
	// ahead, which a length-prefixed protocol sees as frame corruption.
	DropEvery int
}

// Proxy is one listener relaying to one backend address.
type Proxy struct {
	cfg         Config
	backendNet  string
	backendAddr string
	frontAddr   string // scheme-prefixed, for client.Dial
	ln          net.Listener

	enabled atomic.Bool
	muted   atomic.Bool
	total   atomic.Int64

	mu    sync.Mutex
	live  map[int64]*proxyConn
	close sync.Once

	quit chan struct{}
	wg   sync.WaitGroup
}

// proxyConn is one relayed connection pair.
type proxyConn struct {
	client net.Conn
	server net.Conn
}

// kill severs both halves. abrupt asks for a TCP RST instead of FIN. Its
// errors have no consumer: severing the pipe is the handling.
func (pc *proxyConn) kill(abrupt bool) {
	if abrupt {
		if tc, ok := pc.client.(*net.TCPConn); ok {
			_ = tc.SetLinger(0) // pythia:allow error-hygiene — deliberate kill
		}
		if tc, ok := pc.server.(*net.TCPConn); ok {
			_ = tc.SetLinger(0) // pythia:allow error-hygiene — deliberate kill
		}
	}
	_ = pc.client.Close() // pythia:allow error-hygiene — deliberate kill
	_ = pc.server.Close() // pythia:allow error-hygiene — deliberate kill
}

// New starts a proxy in front of backend (a transport address: "host:port",
// "tcp://host:port", or "unix:///path"). The proxy listens on the same
// address family as the backend — TCP backends get a loopback port, unix
// backends a sibling socket at <path>.chaos — so the transport tier the
// client negotiates through the proxy matches the one it would negotiate
// directly.
func New(backend string, cfg Config) (*Proxy, error) {
	network, address, err := transport.ParseAddr(backend)
	if err != nil {
		return nil, err
	}
	var front string
	switch network {
	case transport.NetUnix:
		front = "unix://" + address + ".chaos"
	default:
		front = "tcp://127.0.0.1:0"
	}
	ln, err := transport.Listen(front)
	if err != nil {
		return nil, fmt.Errorf("chaosnet: %w", err)
	}
	if network == transport.NetTCP {
		front = "tcp://" + ln.Addr().String()
	}
	p := &Proxy{
		cfg:         cfg,
		backendNet:  network,
		backendAddr: address,
		frontAddr:   front,
		ln:          ln,
		live:        make(map[int64]*proxyConn),
		quit:        make(chan struct{}),
	}
	p.enabled.Store(true)
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the scheme-prefixed address clients should dial.
func (p *Proxy) Addr() string { return p.frontAddr }

// Conns returns the number of connections accepted so far.
func (p *Proxy) Conns() int { return int(p.total.Load()) }

// SetEnabled controls the partition: while disabled, new connections are
// accepted and immediately closed, so dials fail at the handshake.
// Existing connections are unaffected — combine with CutAll for a full
// partition.
func (p *Proxy) SetEnabled(on bool) { p.enabled.Store(on) }

// ClearFaults stops injecting faults on live and future connections,
// turning the proxy into a transparent relay; chaos tests use it to end a
// run with a convergence phase. The chunk counters keep advancing, so the
// schedule stays deterministic if faults are re-enabled.
func (p *Proxy) ClearFaults() { p.muted.Store(true) }

// CutAll severs every live connection immediately.
func (p *Proxy) CutAll() {
	p.mu.Lock()
	conns := make([]*proxyConn, 0, len(p.live))
	for _, pc := range p.live {
		conns = append(conns, pc)
	}
	p.mu.Unlock()
	for _, pc := range conns {
		pc.kill(true)
	}
}

// Close stops the listener, severs every connection, and joins the relay
// goroutines.
func (p *Proxy) Close() error {
	var err error
	p.close.Do(func() {
		close(p.quit)
		err = p.ln.Close()
		p.CutAll()
		p.wg.Wait()
	})
	return err
}

// acceptLoop accepts frontend connections, dials the backend for each,
// and starts the two relay pumps.
func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		client, err := p.ln.Accept()
		if err != nil {
			select {
			case <-p.quit:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		if !p.enabled.Load() {
			_ = client.Close() // pythia:allow error-hygiene — refusing the connection is the handling
			continue
		}
		server, err := net.DialTimeout(p.backendNet, p.backendAddr, 5*time.Second)
		if err != nil {
			_ = client.Close() // pythia:allow error-hygiene — refusing the connection is the handling
			continue
		}
		id := p.total.Add(1) - 1
		pc := &proxyConn{client: client, server: server}
		p.mu.Lock()
		p.live[id] = pc
		p.mu.Unlock()
		p.wg.Add(2)
		go p.pump(pc, id, 0, client, server)
		go p.pump(pc, id, 1, server, client)
	}
}

// connSeed mixes the proxy seed with the connection index and direction
// (SplitMix64 finalizer) so each pump gets an independent deterministic
// stream.
func connSeed(seed, conn int64, dir int64) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(conn)*0xbf58476d1ce4e5b9 + uint64(dir+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// due reports whether an every-n fault fires on this chunk. The PRNG
// phase-shifts the schedule so the two directions and successive
// connections do not fault in lockstep, while staying a pure function of
// (seed, conn, dir, chunk).
func due(every int, chunk int, phase int) bool {
	if every <= 0 {
		return false
	}
	return (chunk+phase)%every == 0
}

// pump relays src → dst, injecting the configured faults. It removes the
// connection from the live table when the stream ends.
func (p *Proxy) pump(pc *proxyConn, id int64, dir int, src, dst net.Conn) {
	defer p.wg.Done()
	defer func() {
		pc.kill(false)
		p.mu.Lock()
		delete(p.live, id)
		p.mu.Unlock()
	}()
	rng := rand.New(rand.NewSource(connSeed(p.cfg.Seed, id, int64(dir))))
	phase := rng.Intn(1 << 16)
	buf := make([]byte, 32<<10)
	for chunk := 1; ; chunk++ {
		n, err := src.Read(buf)
		if n > 0 {
			if p.muted.Load() {
				if _, werr := dst.Write(buf[:n]); werr != nil {
					return
				}
				if err != nil {
					return
				}
				continue
			}
			if p.cfg.Latency > 0 && !p.sleep(p.cfg.Latency) {
				return
			}
			if due(p.cfg.StallEvery, chunk, phase) && !p.sleep(p.cfg.StallFor) {
				return
			}
			switch {
			case due(p.cfg.ResetEvery, chunk, phase+3):
				pc.kill(true)
				return
			case due(p.cfg.TornEvery, chunk, phase+7):
				cut := 1 + rng.Intn(n)
				_, _ = dst.Write(buf[:cut]) // pythia:allow error-hygiene — a torn write on a pipe being killed
				pc.kill(true)
				return
			case due(p.cfg.DropEvery, chunk, phase+11):
				// Silently swallow the chunk.
			default:
				if _, werr := dst.Write(buf[:n]); werr != nil {
					return
				}
			}
		}
		if err != nil {
			return
		}
	}
}

// sleep waits d unless the proxy is closing; it reports whether the pump
// should continue.
func (p *Proxy) sleep(d time.Duration) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-p.quit:
		return false
	case <-t.C:
		return true
	}
}
