package server

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/cluster"
	"repro/internal/wire"
	"repro/pythia"
)

// storeShards is the number of independently locked shards in the trace
// store. Tenants hash across shards by name, so concurrent connections
// opening sessions on different tenants almost never contend on a lock.
const storeShards = 16

// errBadTenant rejects tenant names that could escape the trace directory
// or that no trace file could legally be named after.
var errBadTenant = errors.New("server: invalid tenant name")

// store is the sharded multi-tenant trace store: at most one loaded trace
// per tenant, loaded lazily on the first Acquire and unloaded when the last
// reference is released. Loading happens outside the shard lock, so a slow
// load of one tenant never blocks lookups of its shard siblings.
type store struct {
	dir    string
	shards [storeShards]storeShard
}

type storeShard struct {
	mu      sync.Mutex
	tenants map[string]*tenant
}

// tenant is one loaded trace plus the live oracles serving it. refs counts
// Acquire-minus-Release; the entry leaves the shard map at zero so an idle
// tenant's memory is reclaimed and a later Acquire reloads from disk.
type tenant struct {
	name string
	refs int

	ready chan struct{} // closed once ts/err are set
	ts    *pythia.TraceSet
	err   error

	// qos is the tenant's shared event budget, created lazily by
	// Server.tenantBucket when per-tenant budgets are configured.
	qosOnce sync.Once
	qos     *cluster.TokenBucket

	mu      sync.Mutex
	oracles map[*pythia.Oracle]struct{}
}

func newStore(dir string) *store {
	s := &store{dir: dir}
	for i := range s.shards {
		s.shards[i].tenants = make(map[string]*tenant)
	}
	return s
}

// sanitizeTenant validates a tenant name as a bare file stem: no path
// separators, no traversal, no hidden-file prefix.
func sanitizeTenant(name string) error {
	if name == "" || len(name) > 255 || name[0] == '.' {
		return errBadTenant
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '.', c == '_', c == '-':
		default:
			return errBadTenant
		}
	}
	if strings.Contains(name, "..") {
		return errBadTenant
	}
	return nil
}

func (s *store) shardOf(name string) *storeShard {
	// Inline FNV-1a over the tenant name.
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint32(name[i])) * 16777619
	}
	return &s.shards[h%storeShards]
}

// Acquire returns the loaded tenant, loading dir/<name>.pythia on first
// use. Concurrent acquirers of a loading tenant wait on the same load.
// Every successful OR failed Acquire must be paired with a Release.
func (s *store) Acquire(name string) (*tenant, error) {
	if err := sanitizeTenant(name); err != nil {
		return nil, err
	}
	sh := s.shardOf(name)
	sh.mu.Lock()
	t := sh.tenants[name]
	loader := false
	if t == nil {
		t = &tenant{
			name:    name,
			ready:   make(chan struct{}),
			oracles: make(map[*pythia.Oracle]struct{}),
		}
		sh.tenants[name] = t
		loader = true
	}
	t.refs++
	sh.mu.Unlock()

	if loader {
		ts, err := pythia.LoadTraceSet(filepath.Join(s.dir, name+".pythia"))
		t.ts, t.err = ts, err
		close(t.ready)
	}
	<-t.ready
	if t.err != nil {
		s.Release(t)
		return nil, fmt.Errorf("server: tenant %q: %w", name, t.err)
	}
	return t, nil
}

// Release drops one reference; the tenant unloads at zero. A failed-load
// tenant also leaves the map at zero, so a later Acquire retries the disk.
func (s *store) Release(t *tenant) {
	sh := s.shardOf(t.name)
	sh.mu.Lock()
	t.refs--
	if t.refs == 0 && sh.tenants[t.name] == t {
		delete(sh.tenants, t.name)
	}
	sh.mu.Unlock()
}

// register adds a live oracle to the tenant's health roster.
func (t *tenant) register(o *pythia.Oracle) {
	t.mu.Lock()
	t.oracles[o] = struct{}{}
	t.mu.Unlock()
}

// unregister removes a closed connection's oracle from the roster.
func (t *tenant) unregister(o *pythia.Oracle) {
	t.mu.Lock()
	delete(t.oracles, o)
	t.mu.Unlock()
}

// foldHealth folds the degradation state of every live oracle serving this
// tenant into a wire report — one tenant's or the whole server's: the worst
// state wins (Degraded dominates, then Quarantined), counters sum, and the
// first non-empty cause is kept.
func (t *tenant) foldHealth(hi *wire.HealthInfo) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for o := range t.oracles {
		foldHealth(hi, o.Health())
	}
}

// foldHealth merges one oracle's health snapshot into an aggregate.
func foldHealth(hi *wire.HealthInfo, h pythia.Health) {
	hi.Oracles++
	hi.PanicsContained += h.PanicsContained
	hi.BudgetBreaches += h.BudgetBreaches
	hi.QuarantinedThreads += h.QuarantinedThreads
	hi.CheckpointFailures += h.CheckpointFailures
	hi.Promotions += h.Promotions
	hi.Rollbacks += h.Rollbacks
	st := stateToWire(h.State)
	if worseState(st, hi.State) {
		hi.State = st
	}
	if hi.Cause == "" && h.Cause != "" {
		hi.Cause = h.Cause
	}
}

// stateToWire maps a core degradation state onto its wire encoding.
func stateToWire(st pythia.State) uint8 {
	switch st {
	case pythia.Degraded:
		return wire.StateDegraded
	case pythia.Quarantined:
		return wire.StateQuarantined
	default:
		return wire.StateHealthy
	}
}

// worseState reports whether a dominates b in the degradation order
// Degraded > Quarantined > Healthy (same precedence as core.Health).
func worseState(a, b uint8) bool {
	rank := func(s uint8) int {
		switch s {
		case wire.StateDegraded:
			return 2
		case wire.StateQuarantined:
			return 1
		default:
			return 0
		}
	}
	return rank(a) > rank(b)
}

// healthOf reports the aggregate health of one loaded tenant; ok is false
// when the tenant is not currently loaded.
func (s *store) healthOf(name string) (wire.HealthInfo, bool) {
	if err := sanitizeTenant(name); err != nil {
		return wire.HealthInfo{}, false
	}
	sh := s.shardOf(name)
	sh.mu.Lock()
	t := sh.tenants[name]
	sh.mu.Unlock()
	if t == nil {
		return wire.HealthInfo{}, false
	}
	select {
	case <-t.ready:
	default:
		// Still loading: report as present but with no oracles yet.
		return wire.HealthInfo{}, true
	}
	if t.err != nil {
		return wire.HealthInfo{}, false
	}
	var hi wire.HealthInfo
	t.foldHealth(&hi)
	return hi, true
}

// serverHealth folds every loaded tenant into one server-wide report.
func (s *store) serverHealth() wire.HealthInfo {
	var hi wire.HealthInfo
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		tenants := make([]*tenant, 0, len(sh.tenants))
		for _, t := range sh.tenants {
			tenants = append(tenants, t)
		}
		sh.mu.Unlock()
		for _, t := range tenants {
			select {
			case <-t.ready:
			default:
				continue
			}
			if t.err != nil {
				continue
			}
			t.foldHealth(&hi)
		}
	}
	return hi
}

// isNotExist reports whether a tenant load failure means "no such trace"
// (as opposed to a corrupt or unreadable one).
func isNotExist(err error) bool {
	return errors.Is(err, fs.ErrNotExist) || errors.Is(err, errBadTenant)
}
