package events_test

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/events"
)

// TestRegistryConcurrentStress runs interners (new names, names other
// interners race to create, names that already exist) against readers
// (Lookup, Name, Names, Len) under the race detector. Afterwards the ids
// are dense, every id names exactly one descriptor, and no two descriptors
// were handed the same id.
func TestRegistryConcurrentStress(t *testing.T) {
	r := events.NewRegistry()
	for i := 0; i < 64; i++ {
		r.Intern("old:" + strconv.Itoa(i))
	}
	const interners, readers, perInterner = 4, 3, 600
	seen := make([]map[string]events.ID, interners)
	var wg sync.WaitGroup
	var stop atomic.Bool
	for g := 0; g < interners; g++ {
		seen[g] = make(map[string]events.ID)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perInterner; i++ {
				var name string
				var id events.ID
				switch i % 3 {
				case 0:
					name = fmt.Sprintf("new:%d:%d", g, i)
					id = r.Intern(name)
				case 1:
					name = "shared:" + strconv.Itoa(i%97)
					id = r.InternArgs("shared", int64(i%97))
				default:
					name = "old:" + strconv.Itoa(i%64)
					id = r.Intern(name)
				}
				if prev, ok := seen[g][name]; ok && prev != id {
					t.Errorf("interner %d: %q was %d, now %d", g, name, prev, id)
				}
				seen[g][name] = id
			}
		}(g)
	}
	var rwg sync.WaitGroup
	for g := 0; g < readers; g++ {
		rwg.Add(1)
		go func(g int) {
			defer rwg.Done()
			for i := 0; !stop.Load(); i++ {
				n := r.Len()
				id := events.ID(i % n)
				name := r.Name(id)
				if got := r.Lookup(name); got != id {
					t.Errorf("reader %d: Lookup(Name(%d) = %q) = %d", g, id, name, got)
					return
				}
				if got := r.Lookup("shared", int64(i%97)); got != events.Invalid && r.Name(got) != "shared:"+strconv.Itoa(i%97) {
					t.Errorf("reader %d: shared:%d resolved to %d (%q)", g, i%97, got, r.Name(got))
					return
				}
				if i%64 == 0 {
					if names := r.Names(); len(names) < n {
						t.Errorf("reader %d: Names has %d entries after Len reported %d", g, len(names), n)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	stop.Store(true)
	rwg.Wait()

	byName := make(map[string]events.ID)
	for g := range seen {
		for name, id := range seen[g] {
			if prev, ok := byName[name]; ok && prev != id {
				t.Fatalf("%q got id %d and id %d", name, prev, id)
			}
			byName[name] = id
		}
	}
	names := r.Names()
	// Every old and shared name was interned by some interner (the strides
	// cover every residue), so byName is the whole table.
	if r.Len() != len(names) || len(names) != len(byName) {
		t.Fatalf("Len %d, Names %d, distinct names interned %d", r.Len(), len(names), len(byName))
	}
	owner := make(map[events.ID]string)
	for name, id := range byName {
		if other, dup := owner[id]; dup {
			t.Fatalf("id %d handed to %q and %q", id, other, name)
		}
		owner[id] = name
		if id < 0 || int(id) >= len(names) || names[id] != name {
			t.Fatalf("%q has id %d, but the table names it %q", name, id, names[min(max(int(id), 0), len(names)-1)])
		}
	}
}

// TestRegistrySnapshotGrowth holds the publication rule to its cost: a
// snapshot is published each time the table doubles, so interning n names
// copies fewer than 2n map entries in total; and once interning stops,
// lookups of names the last snapshot lacks promote the table within n of
// them, after which every name is served from the snapshot.
func TestRegistrySnapshotGrowth(t *testing.T) {
	const n = 100_000
	r := events.NewRegistry()
	names := make([]string, n)
	for i := range names {
		names[i] = "e" + strconv.Itoa(i)
	}
	copied := 0
	prev, _ := events.SnapshotOf(r)
	for _, name := range names {
		r.Intern(name)
		if s, size := events.SnapshotOf(r); s != prev {
			copied += size
			prev = s
		}
	}
	if copied >= 2*n {
		t.Fatalf("interning %d names copied %d snapshot entries, want fewer than %d", n, copied, 2*n)
	}
	if _, size := events.SnapshotOf(r); size == n {
		t.Fatalf("the table of %d names happens to be fully published; the promotion leg tests nothing", n)
	}

	lookups := 0
	for _, size := events.SnapshotOf(r); size < n; _, size = events.SnapshotOf(r) {
		if lookups >= 2*n {
			t.Fatalf("%d lookups after interning stopped and the snapshot still holds %d of %d names", lookups, size, n)
		}
		if r.Lookup(names[lookups%n]) != events.ID(lookups%n) {
			t.Fatalf("Lookup(%q) lost its id", names[lookups%n])
		}
		lookups++
	}
	final, _ := events.SnapshotOf(r)
	for i, name := range names {
		if r.Lookup(name) != events.ID(i) || r.Intern(name) != events.ID(i) || r.Name(events.ID(i)) != name {
			t.Fatalf("%q does not resolve to id %d", name, i)
		}
	}
	if s, _ := events.SnapshotOf(r); s != final {
		t.Fatal("a lookup of a published name went through the lock and republished")
	}
}

// TestRegistryHitZeroAlloc: an Intern or Lookup hit, with or without
// payload args, allocates nothing once the registry has settled.
func TestRegistryHitZeroAlloc(t *testing.T) {
	r := events.NewRegistry()
	r.Intern("MPI_Barrier")
	r.InternArgs("MPI_Send", 3)
	r.InternArgs("MPI_Reduce", 2, 7)
	for i := 0; i < 16; i++ { // hits promote the last names into the snapshot
		r.Lookup("MPI_Barrier")
		r.Lookup("MPI_Send", 3)
		r.Lookup("MPI_Reduce", 2, 7)
	}
	for _, tc := range []struct {
		name string
		hit  func() events.ID
	}{
		{"Intern", func() events.ID { return r.Intern("MPI_Barrier") }},
		{"InternArgs/0", func() events.ID { return r.InternArgs("MPI_Barrier") }},
		{"InternArgs/1", func() events.ID { return r.InternArgs("MPI_Send", 3) }},
		{"InternArgs/2", func() events.ID { return r.InternArgs("MPI_Reduce", 2, 7) }},
		{"Lookup/0", func() events.ID { return r.Lookup("MPI_Barrier") }},
		{"Lookup/1", func() events.ID { return r.Lookup("MPI_Send", 3) }},
		{"Lookup/2", func() events.ID { return r.Lookup("MPI_Reduce", 2, 7) }},
	} {
		if allocs := testing.AllocsPerRun(1000, func() { tc.hit() }); allocs != 0 {
			t.Errorf("%s hit allocates %v/op, want 0", tc.name, allocs)
		}
	}
	if r.Lookup("MPI_Send", 4) != events.Invalid || r.Lookup("MPI_Recv") != events.Invalid {
		t.Fatal("Lookup invented an id")
	}
}

// BenchmarkRegistryIntern measures the Intern hit path under parallel
// callers: the lock-free snapshot read every tier's Intern lands on.
func BenchmarkRegistryIntern(b *testing.B) {
	r := events.NewRegistry()
	for i := 0; i < 64; i++ {
		r.InternArgs("MPI_Send", int64(i))
	}
	for i := 0; i < 64; i++ {
		r.Lookup("MPI_Send", int64(i))
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := int64(0)
		for pb.Next() {
			r.InternArgs("MPI_Send", i&63)
			i++
		}
	})
}
