// Package events defines Pythia's event model: the key points a runtime
// system notifies the oracle about (paper section II-A). An event is an
// integer identifying the key point — e.g. the entry of MPI_Send — plus
// optional discriminating payload such as the destination rank or the
// reduction operation. Pythia interns each distinct (name, payload)
// combination into a dense terminal id so that the grammar engine works on
// plain integers.
package events

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// ID is a dense, non-negative event identifier; it doubles as the terminal
// symbol value in the grammar.
type ID int32

// Invalid is returned by lookups that find nothing.
const Invalid ID = -1

// keyBuf sizes the stack buffer a payload-discriminated key is formatted
// into; longer keys spill to the heap.
const keyBuf = 128

// Registry interns event descriptors into dense IDs and resolves them back
// to human-readable names. It is safe for concurrent use: runtimes intern
// events from many threads at once.
//
// Reads take no lock in steady state. The registry publishes an immutable
// snapshot of its table — the key map and the name list — through an atomic
// pointer, and Intern hits, Lookup, Name and Len are served from it with one
// atomic load. New names go through the mutex; a fresh snapshot is published
// when the table has doubled since the last one, or when the lookups served
// under the mutex since then add up to the snapshot's size (the promotion
// rule of sync.Map). Interning n names thus copies O(n) map entries overall,
// and once a table stops growing a bounded number of lookups leaves every
// name served from the snapshot.
type Registry struct {
	snap atomic.Pointer[table]
	size atomic.Int32 // len(names), so Len needs no lock

	mu     sync.Mutex
	recent map[string]ID // names interned since the last publish
	names  []string      // every name by ID; snapshots share its prefix
	misses int           // lookups served under mu since the last publish
}

// table is one published snapshot. Neither field is written after publish:
// names is a prefix of Registry.names capped at its length, so later
// appends never touch what a snapshot reader can see.
type table struct {
	byKey map[string]ID
	names []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	r := &Registry{recent: make(map[string]ID)}
	r.snap.Store(&table{})
	return r
}

// Intern returns the ID for the key point name, creating it on first use.
func (r *Registry) Intern(name string) ID {
	return r.internKey(name)
}

// InternArgs returns the ID for the key point name discriminated by the
// given payload values (e.g. InternArgs("MPI_Send", dest) gives a distinct
// event per destination rank, as the paper's MPI runtime does). A hit
// formats the key on the stack and allocates nothing.
func (r *Registry) InternArgs(name string, args ...int64) ID {
	if len(args) == 0 {
		return r.internKey(name)
	}
	var buf [keyBuf]byte
	key := appendKey(buf[:0], name, args)
	if id, ok := r.snap.Load().byKey[string(key)]; ok {
		return id
	}
	return r.internSlow(string(key))
}

// internKey returns the ID for a formatted descriptor, creating it on first
// use. A hit is one atomic load and one map read.
// pythia:hotpath — every Intern hit on every tier lands here.
func (r *Registry) internKey(key string) ID {
	if id, ok := r.snap.Load().byKey[key]; ok {
		return id
	}
	return r.internSlow(key)
}

// internSlow is the locked half of internKey: a name the snapshot does not
// hold yet is either a recent one or new.
func (r *Registry) internSlow(key string) ID {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.snap.Load()
	if id, ok := s.byKey[key]; ok {
		return id // published while this caller waited for the lock
	}
	if id, ok := r.recent[key]; ok {
		r.missLocked(s)
		return id
	}
	id := ID(len(r.names))
	r.recent[key] = id
	r.names = append(r.names, key)
	r.size.Store(int32(len(r.names)))
	if len(r.names) >= 2*len(s.names) {
		r.publishLocked(s)
	}
	return id
}

// Lookup returns the ID of an already-interned descriptor, or Invalid. A
// snapshot that holds every name answers a miss without the lock too.
// pythia:hotpath — predicting runtimes resolve every key point here.
func (r *Registry) Lookup(name string, args ...int64) ID {
	s := r.snap.Load()
	if len(args) == 0 {
		if id, ok := s.byKey[name]; ok {
			return id
		}
		if len(s.names) == int(r.size.Load()) {
			return Invalid
		}
		return r.lookupSlow(name)
	}
	var buf [keyBuf]byte
	key := appendKey(buf[:0], name, args)
	if id, ok := s.byKey[string(key)]; ok {
		return id
	}
	if len(s.names) == int(r.size.Load()) {
		return Invalid
	}
	return r.lookupSlow(string(key))
}

// lookupSlow is the locked half of Lookup, for names the snapshot may not
// hold yet.
func (r *Registry) lookupSlow(key string) ID {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.snap.Load()
	if id, ok := s.byKey[key]; ok {
		return id
	}
	if id, ok := r.recent[key]; ok {
		r.missLocked(s)
		return id
	}
	return Invalid
}

// missLocked counts a lookup the snapshot s could not serve, and publishes
// a fresh snapshot once such lookups add up to its size: the copy then
// costs no more than the locked lookups it saves. Caller holds mu.
func (r *Registry) missLocked(s *table) {
	if r.misses++; r.misses >= len(s.names) {
		r.publishLocked(s)
	}
}

// publishLocked installs a snapshot of the whole table: the previous one's
// map plus the recent names. Caller holds mu; s is the current snapshot.
func (r *Registry) publishLocked(s *table) {
	m := make(map[string]ID, len(s.byKey)+len(r.recent))
	for k, id := range s.byKey {
		m[k] = id
	}
	for k, id := range r.recent {
		m[k] = id
	}
	r.snap.Store(&table{byKey: m, names: r.names[:len(r.names):len(r.names)]})
	clear(r.recent)
	r.misses = 0
}

// appendKey formats the descriptor of name discriminated by args
// ("MPI_Send:3") onto b.
func appendKey(b []byte, name string, args []int64) []byte {
	b = append(b, name...)
	for _, a := range args {
		b = append(b, ':')
		b = strconv.AppendInt(b, a, 10)
	}
	return b
}

// Name returns the full descriptor of id ("MPI_Send:3"), or a placeholder
// for unknown ids.
func (r *Registry) Name(id ID) string {
	if s := r.snap.Load(); id >= 0 && int(id) < len(s.names) {
		return s.names[id]
	}
	if id < 0 || int(id) >= int(r.size.Load()) {
		return fmt.Sprintf("?event%d", int32(id))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.missLocked(r.snap.Load())
	return r.names[id]
}

// BaseName returns the key point name of id without its payload suffix
// ("MPI_Send:3" -> "MPI_Send").
func (r *Registry) BaseName(id ID) string {
	n := r.Name(id)
	if i := strings.IndexByte(n, ':'); i >= 0 {
		return n[:i]
	}
	return n
}

// Len returns the number of interned events.
func (r *Registry) Len() int {
	return int(r.size.Load())
}

// Names returns a copy of the descriptor table indexed by ID.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, len(r.names))
	copy(out, r.names)
	return out
}

// FromNames rebuilds a registry from a descriptor table (trace file load).
// The whole table is published as the first snapshot.
func FromNames(names []string) (*Registry, error) {
	m := make(map[string]ID, len(names))
	for i, n := range names {
		if n == "" {
			return nil, fmt.Errorf("events: empty descriptor at id %d", i)
		}
		if _, dup := m[n]; dup {
			return nil, fmt.Errorf("events: duplicate descriptor %q", n)
		}
		m[n] = ID(i)
	}
	r := &Registry{recent: make(map[string]ID), names: append([]string(nil), names...)}
	r.size.Store(int32(len(r.names)))
	r.snap.Store(&table{byKey: m, names: r.names[:len(r.names):len(r.names)]})
	return r, nil
}

// SortedNames returns the descriptors in lexical order (for stable dumps).
func (r *Registry) SortedNames() []string {
	out := r.Names()
	sort.Strings(out)
	return out
}
