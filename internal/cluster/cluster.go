// Package cluster turns N independent pythiad daemons into one logical
// oracle fleet. It contributes two pieces of machinery, both deliberately
// free of I/O so every layer (server, client, tools) can share them:
//
//   - Map: an epoch-versioned tenant→daemon assignment computed with
//     rendezvous (highest-random-weight) hashing. Every party that holds
//     the same (epoch, daemon list, replica count) computes the same
//     assignment with no coordination, so the shard map that travels on
//     the wire is tiny: the inputs, never the output.
//
//   - TokenBucket: a lock-free token bucket used for per-tenant event
//     budgets and daemon-wide pacing. Submission charges it (and may
//     drive it negative — submitted events are one-way and cannot be
//     refused without killing the connection); request/response ops gate
//     on it and are refused with a retry-after hint when exhausted.
//
// The epoch participates in the hash itself, not just in cache
// invalidation: bumping the epoch reshuffles placement even when the
// daemon list is unchanged, which gives operators and tests a way to
// force migrations deterministically.
package cluster

import (
	"sort"
	"sync/atomic"
)

// Map is an immutable, epoch-versioned view of the fleet. A Map is cheap
// to copy and safe for concurrent use; mutation means building a new Map
// with a higher Epoch and swapping the pointer.
type Map struct {
	// Epoch orders shard maps fleet-wide. Higher wins. Epoch 0 with no
	// daemons means "not clustered": every daemon owns every tenant.
	Epoch uint64
	// Replicas is the number of warm replicas kept per tenant beyond the
	// owner. With Replicas=1, each tenant lives on two daemons.
	Replicas int
	// Daemons lists the fleet members by dialable address. Order does not
	// affect placement (rendezvous hashing is order-independent), but a
	// sorted list keeps logs and wire frames canonical.
	Daemons []string
}

// Clustered reports whether the map describes an actual fleet. A nil or
// empty map degrades to single-daemon behaviour everywhere.
func (m *Map) Clustered() bool {
	return m != nil && len(m.Daemons) > 0
}

// score computes the rendezvous weight of a (daemon, tenant) pair under
// the map's epoch using FNV-1a 64. The epoch is hashed first so an epoch
// bump reshuffles every pair.
func (m *Map) score(daemon, tenant string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	e := m.Epoch
	for i := 0; i < 8; i++ {
		h ^= e & 0xff
		h *= prime64
		e >>= 8
	}
	for i := 0; i < len(daemon); i++ {
		h ^= uint64(daemon[i])
		h *= prime64
	}
	h ^= 0xff // separator so ("ab","c") and ("a","bc") diverge
	h *= prime64
	for i := 0; i < len(tenant); i++ {
		h ^= uint64(tenant[i])
		h *= prime64
	}
	// FNV-1a alone has weak avalanche when inputs differ only in their
	// final bytes (daemon ports, tenant suffixes), which correlates the
	// rank order across daemons and skews placement badly. A 64-bit
	// finalizer (murmur3 fmix64) decorrelates the scores.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Assignment returns the daemons responsible for tenant: the owner first,
// then Replicas warm replicas, all chosen by descending rendezvous score
// with ascending address as the deterministic tiebreak. At most
// len(Daemons) entries are returned. A non-clustered map returns nil.
func (m *Map) Assignment(tenant string) []string {
	if !m.Clustered() {
		return nil
	}
	k := 1 + m.Replicas
	if k > len(m.Daemons) {
		k = len(m.Daemons)
	}
	type scored struct {
		addr  string
		score uint64
	}
	all := make([]scored, len(m.Daemons))
	for i, d := range m.Daemons {
		all[i] = scored{addr: d, score: m.score(d, tenant)}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].score != all[j].score {
			return all[i].score > all[j].score
		}
		return all[i].addr < all[j].addr
	})
	out := make([]string, k)
	for i := 0; i < k; i++ {
		out[i] = all[i].addr
	}
	return out
}

// Owner returns the daemon that owns tenant, or "" if the map is not
// clustered.
func (m *Map) Owner(tenant string) string {
	a := m.Assignment(tenant)
	if len(a) == 0 {
		return ""
	}
	return a[0]
}

// Contains reports whether addr is in tenant's assignment (owner or
// replica). A non-clustered map contains everything: single-daemon
// deployments never refuse a tenant.
func (m *Map) Contains(addr, tenant string) bool {
	if !m.Clustered() {
		return true
	}
	for _, d := range m.Assignment(tenant) {
		if d == addr {
			return true
		}
	}
	return false
}

// TokenBucket is a lock-free token bucket. Charge spends tokens without
// refusal (the balance may go negative — callers use it for one-way
// traffic that has already happened); Gate refuses when the balance is
// non-positive and reports how long to wait. All methods take the
// current time in nanoseconds so callers control the clock and tests
// stay deterministic.
type TokenBucket struct {
	rate   int64 // tokens per second
	burst  int64 // cap on the balance
	tokens atomic.Int64
	last   atomic.Int64 // unix nanos of the last refill
}

// NewTokenBucket returns a bucket refilling at rate tokens/second with
// the given burst capacity, starting full. A nil bucket is valid and
// never refuses or charges.
func NewTokenBucket(rate, burst int64, now int64) *TokenBucket {
	if burst < 1 {
		burst = 1
	}
	b := &TokenBucket{rate: rate, burst: burst}
	b.tokens.Store(burst)
	b.last.Store(now)
	return b
}

// refill credits tokens accrued since the last refill. Lock-free: one
// goroutine wins the CAS on last and applies the credit; losers see the
// updated balance on their next read.
func (b *TokenBucket) refill(now int64) {
	last := b.last.Load()
	elapsed := now - last
	if elapsed <= 0 {
		return
	}
	credit := elapsed * b.rate / 1e9
	if credit <= 0 {
		return
	}
	// Advance last only by the time the credit accounts for, so
	// sub-token remainders are not lost to rounding.
	consumed := credit * 1e9 / b.rate
	if !b.last.CompareAndSwap(last, last+consumed) {
		return
	}
	if next := b.tokens.Add(credit); next > b.burst {
		// Clamp without losing concurrent debits: subtract the overshoot.
		b.tokens.Add(b.burst - next)
	}
}

// Charge spends n tokens. It never refuses; the balance may go negative,
// which future Gate calls observe. Safe on a nil bucket.
func (b *TokenBucket) Charge(n int64, now int64) {
	if b == nil {
		return
	}
	b.refill(now)
	b.tokens.Add(-n)
}

// Gate checks whether one unit of request work is admitted. When the
// balance is positive it spends one token and admits. Otherwise it
// refuses and returns the suggested wait in milliseconds until the
// balance turns positive (at least 1ms). Safe on a nil bucket (always
// admits).
func (b *TokenBucket) Gate(now int64) (ok bool, retryMs int64) {
	if b == nil {
		return true, 0
	}
	b.refill(now)
	if t := b.tokens.Load(); t <= 0 {
		deficit := 1 - t
		ms := deficit * 1000 / b.rate
		if ms < 1 {
			ms = 1
		}
		return false, ms
	}
	b.tokens.Add(-1)
	return true, 0
}

// Balance returns the current token balance after a refill at now.
// Intended for tests and introspection.
func (b *TokenBucket) Balance(now int64) int64 {
	if b == nil {
		return 0
	}
	b.refill(now)
	return b.tokens.Load()
}
