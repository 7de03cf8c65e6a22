package grammar

// digramTable is an open-addressed hash table from packed digrams to the
// body node holding the indexed occurrence. It replaces the previous
// map[digram]*node on the PYTHIA-RECORD hot path: every Append funnels
// through one digram lookup (check) and structural edits do several more,
// so the generic map's hashing and bucket chasing dominated record-mode
// cost. The table uses:
//
//   - power-of-two capacity with multiplicative (Fibonacci) hashing of the
//     packed uint64 key;
//   - robin-hood insertion, which bounds probe-sequence variance at the
//     high load factors grammar indexes reach (7/8 here);
//   - tombstone-free deletion by backward shift, so heavy rule churn
//     (match/inline/deleteUnused constantly retire digrams) never degrades
//     lookups the way tombstones would.
//
// FuzzDigramIndexDiff holds the table to a plain Go map through random
// put/get/del/forEach sequences that force growth and backward shifts.

// pack encodes a digram as the table key. The bit patterns of both symbols
// are preserved, so distinct digrams map to distinct keys.
func (d digram) pack() uint64 {
	return uint64(uint32(d.a))<<32 | uint64(uint32(d.b))
}

// unpack is the inverse of pack (used by the invariant sweep).
func unpackDigram(k uint64) digram {
	return digram{a: Sym(int32(uint32(k >> 32))), b: Sym(int32(uint32(k)))}
}

// emptyKey marks a free slot. It is the packed digram (R0, R0); the root
// rule's symbol never appears in any body (nothing references the root), so
// no real digram packs to it.
const emptyKey = ^uint64(0)

// digramTable's zero value is an empty table ready for use.
type digramTable struct {
	keys  []uint64
	vals  []*node
	count int
	// shift is 64 - log2(len(keys)), the multiplicative-hash shift.
	shift uint
}

// slot returns the home slot of key k.
func (t *digramTable) slot(k uint64) uint32 {
	// Fibonacci hashing: the golden-ratio multiplier spreads consecutive
	// packed digrams (which differ in few bits) across the table.
	return uint32((k * 0x9E3779B97F4A7C15) >> t.shift)
}

// get returns the node indexed under k, or nil.
// pythia:hotpath — one lookup per Append (digram-uniqueness check).
func (t *digramTable) get(k uint64) *node {
	if t.count == 0 {
		return nil
	}
	mask := uint32(len(t.keys) - 1)
	i := t.slot(k)
	for dist := uint32(0); ; dist++ {
		kk := t.keys[i]
		if kk == k {
			return t.vals[i]
		}
		if kk == emptyKey {
			return nil
		}
		if (i-t.slot(kk))&mask < dist {
			// Robin-hood invariant: a resident richer than us means k
			// cannot be further down the probe sequence.
			return nil
		}
		i = (i + 1) & mask
	}
}

// put inserts or replaces the entry for k.
// pythia:hotpath — claims the index slot on every new digram.
func (t *digramTable) put(k uint64, v *node) {
	if t.count+1 > len(t.keys)-len(t.keys)/8 {
		t.grow()
	}
	mask := uint32(len(t.keys) - 1)
	i := t.slot(k)
	for dist := uint32(0); ; dist++ {
		kk := t.keys[i]
		if kk == emptyKey {
			t.keys[i] = k
			t.vals[i] = v
			t.count++
			return
		}
		if kk == k {
			t.vals[i] = v
			return
		}
		if rd := (i - t.slot(kk)) & mask; rd < dist {
			// Robin hood: steal the slot from the richer resident and
			// keep inserting the displaced entry.
			k, t.keys[i] = kk, k
			v, t.vals[i] = t.vals[i], v
			dist = rd
		}
		i = (i + 1) & mask
	}
}

// del removes the entry for k if present, backward-shifting the cluster
// behind it so no tombstone is left.
// pythia:hotpath — digram retirement on every structural edit.
func (t *digramTable) del(k uint64) {
	if t.count == 0 {
		return
	}
	mask := uint32(len(t.keys) - 1)
	i := t.slot(k)
	for dist := uint32(0); ; dist++ {
		kk := t.keys[i]
		if kk == emptyKey {
			return
		}
		if kk == k {
			break
		}
		if (i-t.slot(kk))&mask < dist {
			return
		}
		i = (i + 1) & mask
	}
	t.count--
	for {
		j := (i + 1) & mask
		kk := t.keys[j]
		if kk == emptyKey || (j-t.slot(kk))&mask == 0 {
			t.keys[i] = emptyKey
			t.vals[i] = nil
			return
		}
		t.keys[i] = kk
		t.vals[i] = t.vals[j]
		i = j
	}
}

// forEach visits every live entry (iteration order is unspecified). Used by
// the invariant sweep and tests, not the hot path.
func (t *digramTable) forEach(fn func(digram, *node)) {
	for i, k := range t.keys {
		if k != emptyKey {
			fn(unpackDigram(k), t.vals[i])
		}
	}
}

// grow doubles the capacity (initially 32 slots) and reinserts all entries.
func (t *digramTable) grow() {
	oldKeys, oldVals := t.keys, t.vals
	n := 2 * len(oldKeys)
	if n == 0 {
		n = 32
	}
	t.keys = make([]uint64, n)
	for i := range t.keys {
		t.keys[i] = emptyKey
	}
	t.vals = make([]*node, n)
	t.count = 0
	t.shift = 64 - log2u(n)
	for i, k := range oldKeys {
		if k != emptyKey {
			t.put(k, oldVals[i])
		}
	}
}

// log2u returns log2 of the power-of-two n.
func log2u(n int) uint {
	var l uint
	for n > 1 {
		n >>= 1
		l++
	}
	return l
}
