package model

import (
	"testing"
	"testing/quick"

	"repro/internal/grammar"
)

func freeze(seq []int32) *grammar.Frozen {
	g := grammar.New()
	for _, e := range seq {
		g.Append(e)
	}
	return g.Freeze()
}

func TestStatBasics(t *testing.T) {
	var s Stat
	if s.Mean() != 0 {
		t.Fatal("empty mean should be 0")
	}
	s.Add(10)
	s.Add(20)
	s.Add(30)
	if s.Count != 3 || s.Sum != 60 || s.Min != 10 || s.Max != 30 || s.Mean() != 20 {
		t.Fatalf("stat = %+v", s)
	}
}

func TestQuickStatMeanWithinBounds(t *testing.T) {
	f := func(vals []int16) bool {
		var s Stat
		for _, v := range vals {
			s.Add(int64(v))
		}
		if len(vals) == 0 {
			return s.Count == 0
		}
		m := s.Mean()
		return float64(s.Min) <= m && m <= float64(s.Max)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTimingAddPathAndLookup(t *testing.T) {
	tm := NewTiming()
	pathA := []grammar.UserRef{{Rule: 0, Pos: 0}, {Rule: 1, Pos: 2}}
	pathB := []grammar.UserRef{{Rule: 0, Pos: 5}, {Rule: 1, Pos: 2}} // same leaf, different context
	tm.AddPath(pathA, 7, 100)
	tm.AddPath(pathB, 7, 9000)

	if m := tm.MeanForPath(pathA, 7); m != 100 {
		t.Fatalf("context A mean = %v, want 100", m)
	}
	if m := tm.MeanForPath(pathB, 7); m != 9000 {
		t.Fatalf("context B mean = %v, want 9000", m)
	}
	// The shared leaf (depth-1 suffix) blends both.
	leaf := []grammar.UserRef{{Rule: 1, Pos: 2}}
	if m := tm.MeanForPath(leaf, 7); m != 4550 {
		t.Fatalf("leaf mean = %v, want 4550", m)
	}
	// Unknown path falls back to the per-event mean.
	other := []grammar.UserRef{{Rule: 9, Pos: 9}}
	if m := tm.MeanForPath(other, 7); m != 4550 {
		t.Fatalf("event fallback = %v, want 4550", m)
	}
	// Unknown event: zero.
	if m := tm.MeanForPath(other, 8); m != 0 {
		t.Fatalf("unknown event mean = %v, want 0", m)
	}
	// Nil model: zero.
	var nilT *Timing
	if nilT.MeanForPath(pathA, 7) != 0 {
		t.Fatal("nil timing should yield 0")
	}
}

// TestMeanForPathZeroAlloc: the lookup every predicting session makes once
// per window step allocates on none of its paths — a hit at full depth, a
// miss chain ending at the per-event mean, a deep path cut to the context
// depth, and a nil model.
func TestMeanForPathZeroAlloc(t *testing.T) {
	tm := NewTiming()
	hit := []grammar.UserRef{{Rule: 0, Pos: 0}, {Rule: 1, Pos: 2}, {Rule: 4, Pos: 1}, {Rule: 6, Pos: 0}}
	deep := append([]grammar.UserRef{{Rule: 0, Pos: 3}, {Rule: 2, Pos: 1}}, hit...)
	miss := []grammar.UserRef{{Rule: 9, Pos: 9}, {Rule: 8, Pos: 8}, {Rule: 7, Pos: 7}}
	tm.AddPath(hit, 7, 100)
	var nilT *Timing
	var sum float64
	allocs := testing.AllocsPerRun(100, func() {
		sum += tm.MeanForPath(hit, 7) + tm.MeanForPath(deep, 7) + tm.MeanForPath(miss, 7) +
			tm.MeanForPath(miss, 8) + nilT.MeanForPath(hit, 7)
	})
	if allocs != 0 {
		t.Fatalf("MeanForPath allocates %.1f times per five lookups, want 0", allocs)
	}
	if sum != 101*300 {
		t.Fatalf("lookups sum to %v, want %v (hit, deep and the per-event fallback at 100 each)", sum, 101*300)
	}
}

func TestTraceValidate(t *testing.T) {
	f := freeze([]int32{0, 1, 0, 1})
	good := &Trace{Grammar: f, Events: []string{"a", "b"}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	missing := &Trace{Grammar: f, Events: []string{"a"}}
	if err := missing.Validate(); err == nil {
		t.Fatal("terminal without descriptor accepted")
	}
	if err := (&Trace{}).Validate(); err == nil {
		t.Fatal("nil grammar accepted")
	}
}

func TestTraceEventName(t *testing.T) {
	tr := &Trace{Events: []string{"x"}}
	if tr.EventName(0) != "x" {
		t.Fatal("EventName broken")
	}
	if tr.EventName(5) == "" || tr.EventName(-1) == "" {
		t.Fatal("out-of-range EventName must render placeholder")
	}
}

func TestTraceSetViews(t *testing.T) {
	f := freeze([]int32{0, 1})
	ts := &TraceSet{
		Events: []string{"a", "b"},
		Threads: map[int32]*ThreadTrace{
			2: {Grammar: f},
			0: {Grammar: f},
		},
	}
	if err := ts.Validate(); err != nil {
		t.Fatal(err)
	}
	if ids := ts.ThreadIDs(); len(ids) != 2 || ids[0] != 0 || ids[1] != 2 {
		t.Fatalf("ThreadIDs = %v", ids)
	}
	if ts.Trace(2) == nil || ts.Trace(7) != nil {
		t.Fatal("Trace lookup broken")
	}
	if ts.TotalEvents() != 4 {
		t.Fatalf("TotalEvents = %d", ts.TotalEvents())
	}
	if ts.TotalRules() == 0 {
		t.Fatal("TotalRules = 0")
	}
	if err := (&TraceSet{}).Validate(); err == nil {
		t.Fatal("empty trace set accepted")
	}
}

func TestStatMergeCommutative(t *testing.T) {
	mk := func(vals ...int64) Stat {
		var s Stat
		for _, v := range vals {
			s.Add(v)
		}
		return s
	}
	a, b := mk(1, 5), mk(3, 9, 2)
	ab := a
	ab.Merge(b)
	ba := b
	ba.Merge(a)
	if ab != ba {
		t.Fatalf("merge not commutative: %+v vs %+v", ab, ba)
	}
	want := mk(1, 5, 3, 9, 2)
	if ab != want {
		t.Fatalf("merge = %+v, want %+v", ab, want)
	}
}
