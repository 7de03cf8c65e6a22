package grammar

import (
	"math/rand"
	"testing"
)

// refNode returns distinct node pointers for table tests.
func refNodes(n int) []*node {
	out := make([]*node, n)
	for i := range out {
		out[i] = &node{sym: Terminal(int32(i))}
	}
	return out
}

// TestDigramPackRoundTrip checks that packing preserves digram identity for
// terminals and non-terminals, including the full negative range of rule
// symbols.
func TestDigramPackRoundTrip(t *testing.T) {
	syms := []Sym{Terminal(0), Terminal(1), Terminal(1 << 20), nonTerminal(1), nonTerminal(7), nonTerminal(1 << 20)}
	seen := map[uint64]digram{}
	for _, a := range syms {
		for _, b := range syms {
			d := digram{a, b}
			k := d.pack()
			if k == emptyKey {
				t.Fatalf("digram (%v,%v) packs to the empty sentinel", a, b)
			}
			if got := unpackDigram(k); got != d {
				t.Fatalf("unpack(pack(%v,%v)) = (%v,%v)", a, b, got.a, got.b)
			}
			if prev, dup := seen[k]; dup && prev != d {
				t.Fatalf("digrams (%v,%v) and (%v,%v) collide on key %x", prev.a, prev.b, a, b, k)
			}
			seen[k] = d
		}
	}
}

// TestDigramTableAgainstMap drives a digramTable and a plain map through the
// same randomized put/del/get mix and requires identical observable contents
// at every step.
func TestDigramTableAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	nodes := refNodes(64)
	var tab digramTable
	ref := map[uint64]*node{}
	keys := make([]uint64, 256)
	for i := range keys {
		keys[i] = digram{Terminal(int32(i % 32)), nonTerminal(int32(1 + i/32))}.pack()
	}
	for step := 0; step < 20000; step++ {
		k := keys[rng.Intn(len(keys))]
		switch rng.Intn(3) {
		case 0:
			v := nodes[rng.Intn(len(nodes))]
			tab.put(k, v)
			ref[k] = v
		case 1:
			tab.del(k)
			delete(ref, k)
		case 2:
			if got, want := tab.get(k), ref[k]; got != want {
				t.Fatalf("step %d: get(%x) = %p, want %p", step, k, got, want)
			}
		}
		if tab.count != len(ref) {
			t.Fatalf("step %d: count %d, want %d", step, tab.count, len(ref))
		}
	}
	// Full sweep comparison at the end.
	got := map[uint64]*node{}
	tab.forEach(func(d digram, n *node) { got[d.pack()] = n })
	if len(got) != len(ref) {
		t.Fatalf("forEach visited %d entries, want %d", len(got), len(ref))
	}
	for k, v := range ref {
		if got[k] != v {
			t.Fatalf("forEach missing or wrong entry for %x", k)
		}
	}
}

// TestDigramTableBackwardShift exercises deletion inside a probe cluster: all
// keys share a home slot (same hash modulo a small table), so deleting the
// first must backward-shift the rest and keep them reachable.
func TestDigramTableBackwardShift(t *testing.T) {
	var tab digramTable
	nodes := refNodes(16)
	// Insert enough keys to form clusters in the initial 32-slot table.
	keys := make([]uint64, 16)
	for i := range keys {
		keys[i] = digram{Terminal(int32(i)), Terminal(int32(i + 1))}.pack()
		tab.put(keys[i], nodes[i])
	}
	for i, k := range keys {
		tab.del(k)
		if tab.get(k) != nil {
			t.Fatalf("key %d still reachable after delete", i)
		}
		for j := i + 1; j < len(keys); j++ {
			if tab.get(keys[j]) != nodes[j] {
				t.Fatalf("key %d lost after deleting key %d", j, i)
			}
		}
	}
	if tab.count != 0 {
		t.Fatalf("count %d after deleting everything", tab.count)
	}
}

// FuzzDigramIndexDiff drives a digramTable and a plain map through the same
// byte-derived sequence of put/get/del/forEach and requires identical
// contents at every step. Each operation takes two bytes: the first picks
// the operation (and the value for a put), the second the key among 256
// digrams. Up to 256 live keys grow the table from 32 to 512 slots, and the
// deletes that follow shift robin-hood clusters backwards — the paths a lost
// entry or a wrong occupant would come from.
func FuzzDigramIndexDiff(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 1, 0x40, 1, 0x80, 1, 0x40, 1})
	f.Add([]byte{0x00, 0, 0x00, 16, 0x00, 32, 0x00, 48, 0x80, 0, 0x40, 16, 0x40, 48})
	grow := make([]byte, 0, 4*256)
	for k := 0; k < 256; k++ {
		grow = append(grow, byte(k&0x3f), byte(k))
	}
	for k := 0; k < 256; k += 3 {
		grow = append(grow, 0x80, byte(k), 0x40, byte(k+1))
	}
	f.Add(grow)
	f.Add([]byte{0x01, 7, 0x02, 7, 0xc0, 0, 0x80, 7, 0x40, 7, 0xc0, 0})
	nodes := refNodes(64)
	f.Fuzz(func(t *testing.T, data []byte) {
		var tab digramTable
		ref := map[uint64]*node{}
		for i := 0; i+1 < len(data); i += 2 {
			op, kb := data[i], data[i+1]
			k := digram{Terminal(int32(kb & 15)), nonTerminal(int32(1 + kb>>4))}.pack()
			switch op >> 6 {
			case 0:
				v := nodes[op&0x3f]
				tab.put(k, v)
				ref[k] = v
			case 1:
				if got, want := tab.get(k), ref[k]; got != want {
					t.Fatalf("op %d: get(%x) = %p, want %p", i/2, k, got, want)
				}
			case 2:
				tab.del(k)
				delete(ref, k)
			case 3:
				seen := 0
				tab.forEach(func(d digram, n *node) {
					seen++
					if ref[d.pack()] != n {
						t.Fatalf("op %d: forEach visits (%v,%v) -> %p, want %p", i/2, d.a, d.b, n, ref[d.pack()])
					}
				})
				if seen != len(ref) {
					t.Fatalf("op %d: forEach visited %d entries, want %d", i/2, seen, len(ref))
				}
			}
			if tab.count != len(ref) {
				t.Fatalf("op %d: count %d, want %d", i/2, tab.count, len(ref))
			}
		}
		for k, v := range ref {
			if got := tab.get(k); got != v {
				t.Fatalf("after %d ops: get(%x) = %p, want %p", len(data)/2, k, got, v)
			}
		}
	})
}
