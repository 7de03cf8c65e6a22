package server

// Cluster support: the daemon-side half of the pythia-cluster subsystem.
//
// A clustered daemon knows three things: its own fleet address, the current
// shard map (epoch, replica count, daemon list), and how to talk to its
// peers over the same wire protocol clients use. From those it derives
// everything else with no coordination service:
//
//   - ownership enforcement: OpenSession for a tenant outside this daemon's
//     assignment is refused with the non-fatal CodeWrongShard, steering the
//     client to re-fetch the map and re-route;
//   - epoch gossip: every TShardMap request carries the caller's epoch and
//     the daemon adopts any higher one it sees (max-wins), so an operator
//     bumping one daemon converges the fleet;
//   - anti-entropy sweeps: on adoption (and periodically, when enabled) the
//     daemon walks its trace directory and offers every tenant's newest
//     committed generation to the daemons the map assigns it to — that is
//     both planned migration on epoch change and warm replication in one
//     mechanism. The receiver applies last-generation-wins and the atomic
//     tracefile.Save rename is the commit point.
//
// Sessions already open are never re-homed by an epoch change: ownership is
// checked at session open only, so an in-flight stream finishes where it
// started and the client's next open lands on the new owner.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/tracefile"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/pythia"
)

// clusterState is the immutable cluster view swapped atomically on epoch
// adoption.
type clusterState struct {
	self string // this daemon's address as it appears in the map
	m    cluster.Map
}

// ConfigureCluster joins the daemon to a fleet. self must be the address
// the other daemons and the clients dial for this daemon (it is matched
// literally against the map). daemons is the full fleet including self.
// Safe to call after listeners are bound — tests bind :0 first and pass
// the resolved address. Calling it again with a higher epoch adopts that
// epoch and triggers a sweep.
func (s *Server) ConfigureCluster(self string, daemons []string, epoch uint64, replicas int) {
	s.clusMu.Lock()
	s.clus.Store(&clusterState{
		self: self,
		m:    cluster.Map{Epoch: epoch, Replicas: replicas, Daemons: daemons},
	})
	s.clusMu.Unlock()
	// pythia:allow goroutine-lifecycle — one-shot anti-entropy pass; Sweep
	// serializes on sweepMu and returns immediately once the server starts
	// draining, so nothing needs to join it.
	go s.Sweep()
}

// ClusterMap returns the daemon's current shard map (zero Map when not
// clustered).
func (s *Server) ClusterMap() cluster.Map {
	if cs := s.clus.Load(); cs != nil {
		return cs.m
	}
	return cluster.Map{}
}

// adoptEpoch applies max-wins epoch gossip: a higher epoch re-hashes the
// same fleet and triggers a migration/replication sweep. Reports whether
// the epoch was adopted.
func (s *Server) adoptEpoch(epoch uint64) bool {
	s.clusMu.Lock()
	cs := s.clus.Load()
	if cs == nil || epoch <= cs.m.Epoch {
		s.clusMu.Unlock()
		return false
	}
	next := &clusterState{self: cs.self, m: cs.m}
	next.m.Epoch = epoch
	s.clus.Store(next)
	s.clusMu.Unlock()
	s.logf("pythiad: cluster epoch %d adopted (was %d)", epoch, cs.m.Epoch)
	// pythia:allow goroutine-lifecycle — one-shot anti-entropy pass; Sweep
	// serializes on sweepMu and returns immediately once the server starts
	// draining, so nothing needs to join it.
	go s.Sweep()
	return true
}

// ProbePeers gossips the current epoch with every peer once. Run at
// startup so a daemon joining (or rejoining) a fleet picks up an epoch
// bumped while it was away, and so its own higher epoch propagates.
func (s *Server) ProbePeers() {
	cs := s.clus.Load()
	if cs == nil || !cs.m.Clustered() {
		return
	}
	for _, d := range cs.m.Daemons {
		if d == cs.self {
			continue
		}
		p, err := dialPeer(d)
		if err != nil {
			continue // peer not up yet; gossip flows the other way later
		}
		var sm wire.ShardMap
		if err := p.Exchange(wire.TShardMap, &wire.Uint64{V: cs.m.Epoch}, &sm, peerTimeout); err == nil {
			s.adoptEpoch(sm.Epoch)
		}
		if cerr := p.NC.Close(); cerr != nil {
			s.logf("pythiad: probe: closing peer %s: %v", d, cerr)
		}
	}
}

// Sweep walks the trace directory and offers every tenant's newest
// committed generation to the daemons the current map assigns it to —
// replicas when this daemon is assigned, the whole new assignment when an
// epoch change took the tenant away (planned handoff). One sweep runs at
// a time; a draining server does not sweep.
func (s *Server) Sweep() {
	if s.draining.Load() {
		return
	}
	s.sweepMu.Lock()
	defer s.sweepMu.Unlock()
	cs := s.clus.Load()
	if cs == nil || !cs.m.Clustered() {
		return
	}
	paths, err := filepath.Glob(filepath.Join(s.cfg.TraceDir, "*.pythia"))
	if err != nil {
		s.logf("pythiad: sweep: %v", err)
		return
	}
	// Group offers by target so each peer is dialed once per sweep.
	byPeer := make(map[string][]string)
	for _, path := range paths {
		tenant := strings.TrimSuffix(filepath.Base(path), ".pythia")
		if sanitizeTenant(tenant) != nil {
			continue
		}
		for _, d := range cs.m.Assignment(tenant) {
			if d != cs.self {
				byPeer[d] = append(byPeer[d], tenant)
			}
		}
	}
	for peer, tenants := range byPeer {
		p, err := dialPeer(peer)
		if err != nil {
			s.logf("pythiad: sweep: dial %s: %v", peer, err)
			continue
		}
		for _, tenant := range tenants {
			om := s.loadOffer(tenant, cs.self)
			if len(om.Payload) == 0 {
				s.logf("pythiad: sweep: tenant %q: nothing to offer", tenant)
				continue
			}
			var verdict wire.ModelAccepted
			err := p.Exchange(wire.TOfferModel, om, &verdict, peerTimeout)
			switch {
			case err != nil:
				s.logf("pythiad: sweep: offer %q to %s: %v", tenant, peer, err)
			case verdict.Accepted:
				s.logf("pythiad: sweep: %q shipped to %s (generation %d)", tenant, peer, verdict.HaveGen)
			}
		}
		if cerr := p.NC.Close(); cerr != nil {
			s.logf("pythiad: sweep: closing peer %s: %v", peer, cerr)
		}
	}
}

// loadOffer builds the TOfferModel payload for one tenant: the trace file
// as currently committed, serialized, with its generation and this
// daemon's address as the source.
func (s *Server) loadOffer(tenant, self string) *wire.ModelOffer {
	om := &wire.ModelOffer{Tenant: tenant, Source: self}
	ts, err := pythia.LoadTraceSet(filepath.Join(s.cfg.TraceDir, tenant+".pythia"))
	if err != nil {
		return om // empty payload; the peer rejects it
	}
	if ts.Provenance != nil {
		om.Generation = ts.Provenance.Generation
	}
	var buf bytes.Buffer
	if err := tracefile.Write(&buf, ts); err != nil || buf.Len() > wire.MaxModelBytes {
		return om
	}
	om.Payload = buf.Bytes()
	return om
}

// checkShard enforces ownership at session-open time. Nil when this daemon
// is in the tenant's assignment (or the daemon is not clustered); a
// non-fatal CodeWrongShard refusal otherwise — the connection stays usable
// and the client re-fetches the map.
func (c *conn) checkShard(tenant string) *protoErr {
	cs := c.srv.clus.Load()
	if cs == nil || cs.m.Contains(cs.self, tenant) {
		return nil
	}
	return &protoErr{
		code: wire.CodeWrongShard,
		msg: fmt.Sprintf("tenant %q is owned by %s under shard-map epoch %d",
			tenant, cs.m.Owner(tenant), cs.m.Epoch),
	}
}

// shardMap answers a TShardMap request and folds the caller's epoch into
// the gossip (max-wins). A non-clustered daemon answers with an empty map.
func (c *conn) shardMap(caller *wire.Uint64) (wire.Message, error) {
	c.srv.adoptEpoch(caller.V)
	sm := new(wire.ShardMap)
	if cs := c.srv.clus.Load(); cs != nil {
		*sm = wire.ShardMap{Epoch: cs.m.Epoch, Replicas: uint8(min(cs.m.Replicas, 255)), Daemons: cs.m.Daemons}
	}
	return sm, nil
}

// fetchModel answers a TFetchModel request with the tenant's newest
// committed generation as a TOfferModel frame.
func (c *conn) fetchModel(m *wire.TenantRef) (wire.Message, error) {
	if err := sanitizeTenant(m.Tenant); err != nil {
		return nil, &protoErr{code: wire.CodeUnknownTenant, msg: err.Error()}
	}
	self := ""
	if cs := c.srv.clus.Load(); cs != nil {
		self = cs.self
	}
	om := c.srv.loadOffer(m.Tenant, self)
	if len(om.Payload) == 0 {
		return nil, &protoErr{code: wire.CodeUnknownTenant,
			msg: fmt.Sprintf("tenant %q has no committed generation here", m.Tenant)}
	}
	return om, nil
}

// offerModel applies one TOfferModel with last-generation-wins: the offer
// is committed (atomic tracefile.Save rename) only when this daemon has no
// generation for the tenant, or a strictly older one. The verdict frame
// reports what is now on disk either way. The shipped provenance is
// stamped with the source daemon so lineage listings can tell a replicated
// generation from a locally recorded one.
func (c *conn) offerModel(om *wire.ModelOffer) (wire.Message, error) {
	if err := sanitizeTenant(om.Tenant); err != nil {
		return nil, &protoErr{code: wire.CodeUnknownTenant, msg: err.Error()}
	}
	ts, err := tracefile.Read(bytes.NewReader(om.Payload))
	if err != nil {
		return nil, &protoErr{code: wire.CodeInternal, msg: fmt.Sprintf("offered model: %v", err)}
	}
	path := filepath.Join(c.srv.cfg.TraceDir, om.Tenant+".pythia")
	accepted := true
	haveGen := uint64(0)
	if local, lerr := pythia.LoadTraceSet(path); lerr == nil {
		if local.Provenance != nil {
			haveGen = local.Provenance.Generation
		}
		accepted = om.Generation > haveGen
	} else if !os.IsNotExist(lerr) {
		// An unreadable local file loses to any intact offer.
		c.srv.logf("pythiad: offer %q: local file unreadable, accepting: %v", om.Tenant, lerr)
	}
	if accepted {
		src := om.Source
		if src == "" {
			src = c.NC.RemoteAddr().String()
		}
		if ts.Provenance == nil {
			ts.Provenance = &pythia.Provenance{Generation: om.Generation}
		}
		ts.Provenance.ReplicatedFrom = src
		if serr := pythia.SaveTraceSet(path, ts); serr != nil {
			return nil, &protoErr{code: wire.CodeInternal, msg: fmt.Sprintf("committing offered model: %v", serr)}
		}
		haveGen = om.Generation
		c.srv.logf("pythiad: tenant %q generation %d accepted from %s", om.Tenant, om.Generation, src)
	}
	return &wire.ModelAccepted{Accepted: accepted, HaveGen: haveGen}, nil
}

// tenantBucket returns the per-tenant QoS bucket, creating it on the
// tenant's first use. Nil (never charges, never refuses) when per-tenant
// budgets are not configured.
func (s *Server) tenantBucket(t *tenant) *cluster.TokenBucket {
	rate := s.cfg.TenantEventsPerSec
	if rate <= 0 {
		return nil
	}
	t.qosOnce.Do(func() {
		burst := s.cfg.TenantBurst
		if burst <= 0 {
			burst = rate // default: one second of slack
		}
		t.qos = cluster.NewTokenBucket(rate, burst, time.Now().UnixNano())
	})
	return t.qos
}

// chargeEvents debits n events against the session's tenant budget.
// Submitted events are one-way and are never refused — an exhausted budget
// surfaces on the tenant's next gated request instead.
// pythia:hotpath — called per applied batch; must not allocate.
func chargeEvents(q *cluster.TokenBucket, n int64) {
	if q != nil {
		q.Charge(n, time.Now().UnixNano())
	}
}

// gateTenant admits or refuses one unit of request/response work against
// the tenant's budget. Refusals are non-fatal CodeRetryLater with the
// bucket's own retry-after hint: the Error frame is the response, so
// pairing survives and the client backs off.
func gateTenant(q *cluster.TokenBucket) *protoErr {
	if q == nil {
		return nil
	}
	if ok, retryMs := q.Gate(time.Now().UnixNano()); !ok {
		if retryMs > 60_000 {
			retryMs = 60_000
		}
		return &protoErr{
			code:    wire.CodeRetryLater,
			msg:     "tenant event budget exhausted",
			retryMs: uint32(retryMs),
		}
	}
	return nil
}

// peerTimeout bounds the handshake and each request/reply exchange with a
// peer daemon.
const peerTimeout = 5 * time.Second

// dialPeer connects to a peer daemon and completes the Hello handshake.
// Peers reuse the public protocol and wire's exchange path, so migration
// works across any transport a daemon listens on; addr takes the same forms
// client dials do ("host:port", "tcp://host:port", "unix:///path/to.sock").
func dialPeer(addr string) (*wire.Conn, error) {
	nc, _, err := transport.Dial(addr, 2*time.Second)
	if err != nil {
		return nil, err
	}
	p := wire.NewConn(nc)
	if _, err := p.Handshake(0, peerTimeout); err != nil {
		return nil, errors.Join(fmt.Errorf("peer %s: %w", addr, err), nc.Close())
	}
	return p, nil
}
