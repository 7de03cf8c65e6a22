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

// errBadTenant rejects tenant names that could escape the trace directory
// or that no trace file could legally be named after.
var errBadTenant = errors.New("server: invalid tenant name")

// store is the multi-tenant trace store: at most one loaded trace per
// tenant, loaded lazily on the first Acquire and unloaded when the last
// reference is released. One lock covers the map: it is taken once per
// (connection, tenant) and per Health request, never per event. Loading
// happens outside it, so a slow load of one tenant never blocks another.
type store struct {
	dir     string
	mu      sync.Mutex
	tenants map[string]*tenant
}

// tenant is one loaded trace plus the live oracles serving it. refs counts
// Acquire-minus-Release; the entry leaves the store's map at zero so an idle
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
	return &store{dir: dir, tenants: make(map[string]*tenant)}
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

// Acquire returns the loaded tenant, loading dir/<name>.pythia on first
// use. Concurrent acquirers of a loading tenant wait on the same load.
// Every successful OR failed Acquire must be paired with a Release.
func (s *store) Acquire(name string) (*tenant, error) {
	if err := sanitizeTenant(name); err != nil {
		return nil, err
	}
	s.mu.Lock()
	t := s.tenants[name]
	loader := false
	if t == nil {
		t = &tenant{
			name:    name,
			ready:   make(chan struct{}),
			oracles: make(map[*pythia.Oracle]struct{}),
		}
		s.tenants[name] = t
		loader = true
	}
	t.refs++
	s.mu.Unlock()

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
	s.mu.Lock()
	t.refs--
	if t.refs == 0 && s.tenants[t.name] == t {
		delete(s.tenants, t.name)
	}
	s.mu.Unlock()
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
	s.mu.Lock()
	t := s.tenants[name]
	s.mu.Unlock()
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
	s.mu.Lock()
	tenants := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		tenants = append(tenants, t)
	}
	s.mu.Unlock()
	var hi wire.HealthInfo
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
	return hi
}

// isNotExist reports whether a tenant load failure means "no such trace"
// (as opposed to a corrupt or unreadable one).
func isNotExist(err error) bool {
	return errors.Is(err, fs.ErrNotExist) || errors.Is(err, errBadTenant)
}
