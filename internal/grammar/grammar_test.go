package grammar

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// buildChecked appends seq to a fresh grammar, verifying all invariants
// after every single append. It fails the test at the first violation.
func buildChecked(t *testing.T, seq []int32) *Grammar {
	t.Helper()
	g := New()
	for i, e := range seq {
		g.Append(e)
		if err := g.CheckInvariantsStrict(); err != nil {
			t.Fatalf("after appending %d events (last=%d): %v\ngrammar:\n%s",
				i+1, e, err, g.Dump(nil))
		}
	}
	return g
}

// build appends seq without per-step checking (for large inputs), verifying
// invariants once at the end.
func build(t *testing.T, seq []int32) *Grammar {
	t.Helper()
	g := New()
	for _, e := range seq {
		g.Append(e)
	}
	if err := g.CheckInvariantsStrict(); err != nil {
		t.Fatalf("invariants: %v\ngrammar:\n%s", err, g.Dump(nil))
	}
	return g
}

func seqOf(s string) []int32 {
	out := make([]int32, len(s))
	for i, c := range s {
		out[i] = int32(c - 'a')
	}
	return out
}

func TestEmptyGrammar(t *testing.T) {
	g := New()
	if err := g.CheckInvariantsStrict(); err != nil {
		t.Fatal(err)
	}
	if g.EventCount() != 0 {
		t.Fatalf("EventCount = %d, want 0", g.EventCount())
	}
	if got := g.Unfold(); len(got) != 0 {
		t.Fatalf("Unfold of empty grammar = %v", got)
	}
	if g.RuleCount() != 1 {
		t.Fatalf("RuleCount = %d, want 1 (root)", g.RuleCount())
	}
}

func TestSingleEvent(t *testing.T) {
	g := buildChecked(t, []int32{7})
	if got := g.Unfold(); !reflect.DeepEqual(got, []int32{7}) {
		t.Fatalf("Unfold = %v", got)
	}
}

func TestRunMerging(t *testing.T) {
	g := buildChecked(t, []int32{1, 1, 1, 1, 1})
	if g.RuleCount() != 1 {
		t.Fatalf("RuleCount = %d, want 1", g.RuleCount())
	}
	root := g.root()
	if root.bodyLen() != 1 {
		t.Fatalf("root body has %d runs, want 1:\n%s", root.bodyLen(), g.Dump(nil))
	}
	if root.first().count != 5 {
		t.Fatalf("run count = %d, want 5", root.first().count)
	}
}

func TestAppendRun(t *testing.T) {
	g := New()
	g.AppendRun(3, 4)
	g.Append(5)
	g.AppendRun(3, 2)
	if err := g.CheckInvariantsStrict(); err != nil {
		t.Fatal(err)
	}
	want := []int32{3, 3, 3, 3, 5, 3, 3}
	if got := g.Unfold(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Unfold = %v, want %v", got, want)
	}
}

// TestPaperFig1 reproduces the trace of Figure 1: "abbcbcab". The exact rule
// decomposition may differ from the figure (which is illustrative), but the
// unfolding must be exact and the invariants must hold.
func TestPaperFig1(t *testing.T) {
	seq := seqOf("abbcbcab")
	g := buildChecked(t, seq)
	if got := g.Unfold(); !reflect.DeepEqual(got, seq) {
		t.Fatalf("Unfold = %v, want %v", got, seq)
	}
}

// TestPaperFig2 reproduces Figure 2: a loop of 100 iterations alternating
// events a and b reduces to a root holding 50 repetitions of one rule whose
// body is "ab".
func TestPaperFig2(t *testing.T) {
	var seq []int32
	for i := 0; i < 100; i++ {
		seq = append(seq, int32(i%2)) // a=0 (even), b=1 (odd)
	}
	g := build(t, seq)
	if got := g.Unfold(); !reflect.DeepEqual(got, seq) {
		t.Fatalf("Unfold mismatch")
	}
	if g.RuleCount() != 2 {
		t.Fatalf("RuleCount = %d, want 2:\n%s", g.RuleCount(), g.Dump(nil))
	}
	root := g.root()
	if root.bodyLen() != 1 {
		t.Fatalf("root body has %d runs, want 1:\n%s", root.bodyLen(), g.Dump(nil))
	}
	n := root.first()
	if n.sym.IsTerminal() || n.count != 50 {
		t.Fatalf("root run = %v^%d, want A^50:\n%s", n.sym, n.count, g.Dump(nil))
	}
	a := g.ruleOf(n.sym)
	if a.bodyLen() != 2 || a.first().sym != Terminal(0) || a.last().sym != Terminal(1) {
		t.Fatalf("rule body not 'ab':\n%s", g.Dump(nil))
	}
}

// TestPaperFig3 replays the scenario of Figure 3: a grammar whose root ends
// with "... B b^5" (with A -> b^3 c^2 and B -> b^2 A already present)
// receives two successive c events and must converge to a root ending with
// B^2, with rule C eliminated.
//
// The exact prefix used to produce that state is synthesised here: the
// sequence "b3 c2 b2 b3 c2" = "bbbccbbbbbcc" builds A -> b^3 c^2 and
// B -> b^2 A with root "A B"; appending "bbbbb" gives root "A B b^5".
func TestPaperFig3(t *testing.T) {
	seq := seqOf("bbbccbbbbbccbbbbb") // A B b^5 with A->b^3c^2, B->b^2A
	g := buildChecked(t, seq)

	// Now the two appends of the figure.
	g.Append(int32('c' - 'a'))
	if err := g.CheckInvariantsStrict(); err != nil {
		t.Fatalf("after first c: %v\n%s", err, g.Dump(nil))
	}
	g.Append(int32('c' - 'a'))
	if err := g.CheckInvariantsStrict(); err != nil {
		t.Fatalf("after second c: %v\n%s", err, g.Dump(nil))
	}
	want := append(append([]int32{}, seq...), int32('c'-'a'), int32('c'-'a'))
	if got := g.Unfold(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Unfold mismatch:\n%s", g.Dump(nil))
	}
	// Figure 3h shows the repetition being captured into a shared rule and
	// the transient rule C eliminated. The exact factorisation is
	// construction-order dependent (the figure starts from a hand-drawn
	// state); what must hold is that the grammar stays maximally compact:
	// three rules and a two-run root with the repetition folded into an
	// exponent.
	if rc := g.RuleCount(); rc != 3 {
		t.Fatalf("RuleCount = %d, want 3:\n%s", rc, g.Dump(nil))
	}
	root := g.root()
	if root.bodyLen() != 2 {
		t.Fatalf("root body has %d runs, want 2:\n%s", root.bodyLen(), g.Dump(nil))
	}
	if root.first().count+root.last().count != 3 {
		t.Fatalf("root exponents should total 3 (one repeated rule):\n%s", g.Dump(nil))
	}
}

func TestLoopWithCondition(t *testing.T) {
	// for i in 0..99: if even -> a else -> b, then a trailing barrier event.
	var seq []int32
	for i := 0; i < 100; i++ {
		seq = append(seq, int32(i%2))
	}
	seq = append(seq, 9)
	g := build(t, seq)
	if got := g.Unfold(); !reflect.DeepEqual(got, seq) {
		t.Fatalf("Unfold mismatch")
	}
}

func TestNestedLoops(t *testing.T) {
	// Outer loop 20x: inner loop 10x of (a b), then c.
	var seq []int32
	for i := 0; i < 20; i++ {
		for j := 0; j < 10; j++ {
			seq = append(seq, 0, 1)
		}
		seq = append(seq, 2)
	}
	g := build(t, seq)
	if got := g.Unfold(); !reflect.DeepEqual(got, seq) {
		t.Fatalf("Unfold mismatch")
	}
	// A deeply repetitive trace must compress to a handful of rules.
	if rc := g.RuleCount(); rc > 6 {
		t.Fatalf("RuleCount = %d, want <= 6:\n%s", rc, g.Dump(nil))
	}
}

func TestMPIStylePattern(t *testing.T) {
	// Mimics the BT grammar of paper Fig 7: setup collectives, 200 iterations
	// of a communication pattern, closing collectives.
	const (
		bcast     = 0
		barrier   = 1
		isend     = 2
		irecv     = 3
		wait      = 4
		allreduce = 5
		reduce    = 6
	)
	var seq []int32
	for i := 0; i < 6; i++ {
		seq = append(seq, bcast)
	}
	seq = append(seq, barrier)
	for i := 0; i < 200; i++ {
		seq = append(seq, isend, irecv, wait, wait)
	}
	seq = append(seq, allreduce, allreduce, reduce, barrier)
	g := build(t, seq)
	if got := g.Unfold(); !reflect.DeepEqual(got, seq) {
		t.Fatalf("Unfold mismatch")
	}
	if rc := g.RuleCount(); rc > 5 {
		t.Fatalf("RuleCount = %d, want small:\n%s", rc, g.Dump(nil))
	}
}

func TestUnfoldMatchesInputSmallAlphabetExhaustive(t *testing.T) {
	// All sequences of length <= 8 over a 2-symbol alphabet, invariants
	// checked after every append.
	for n := 0; n <= 8; n++ {
		for mask := 0; mask < 1<<uint(n); mask++ {
			seq := make([]int32, n)
			for i := 0; i < n; i++ {
				seq[i] = int32((mask >> uint(i)) & 1)
			}
			g := New()
			for i, e := range seq {
				g.Append(e)
				if err := g.CheckInvariantsStrict(); err != nil {
					t.Fatalf("seq %v after %d appends: %v\n%s", seq, i+1, err, g.Dump(nil))
				}
			}
			if got := g.Unfold(); !reflect.DeepEqual(got, seq) {
				if len(got) == 0 && len(seq) == 0 {
					continue
				}
				t.Fatalf("seq %v: Unfold = %v\n%s", seq, got, g.Dump(nil))
			}
		}
	}
}

func TestQuickUnfoldRoundTrip(t *testing.T) {
	// Property: for any sequence, Unfold(reduce(seq)) == seq and all
	// invariants hold at the end.
	f := func(raw []uint8, alphabet uint8) bool {
		k := int32(alphabet%5) + 1
		seq := make([]int32, len(raw))
		for i, v := range raw {
			seq[i] = int32(v) % k
		}
		g := New()
		for _, e := range seq {
			g.Append(e)
		}
		if err := g.CheckInvariantsStrict(); err != nil {
			t.Logf("invariants: %v", err)
			return false
		}
		got := g.Unfold()
		if len(got) == 0 && len(seq) == 0 {
			return true
		}
		return reflect.DeepEqual(got, seq)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomLongSequencesCheckedSparsely(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		alphabet := 2 + rng.Intn(6)
		n := 200 + rng.Intn(2000)
		seq := make([]int32, n)
		// Mix random noise with repetitive phases to exercise both rule
		// creation and reuse/inlining.
		i := 0
		for i < n {
			if rng.Intn(2) == 0 {
				// Repetitive phase: repeat a random motif.
				motifLen := 1 + rng.Intn(4)
				motif := make([]int32, motifLen)
				for j := range motif {
					motif[j] = int32(rng.Intn(alphabet))
				}
				reps := 1 + rng.Intn(20)
				for r := 0; r < reps && i < n; r++ {
					for _, m := range motif {
						if i >= n {
							break
						}
						seq[i] = m
						i++
					}
				}
			} else {
				seq[i] = int32(rng.Intn(alphabet))
				i++
			}
		}
		g := New()
		for j, e := range seq {
			g.Append(e)
			if j%97 == 0 {
				if err := g.CheckInvariantsStrict(); err != nil {
					t.Fatalf("trial %d after %d appends: %v", trial, j+1, err)
				}
			}
		}
		if err := g.CheckInvariantsStrict(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got := g.Unfold(); !reflect.DeepEqual(got, seq) {
			t.Fatalf("trial %d: unfold mismatch (len got %d, want %d)", trial, len(got), len(seq))
		}
	}
}

func TestWalkEarlyStop(t *testing.T) {
	g := build(t, seqOf("abcabcabc"))
	var got []int32
	g.Walk(func(e int32) bool {
		got = append(got, e)
		return len(got) < 4
	})
	want := seqOf("abca")
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Walk collected %v, want %v", got, want)
	}
}

func TestExpandedLength(t *testing.T) {
	seq := seqOf("abababababab")
	g := build(t, seq)
	if n := g.ExpandedLength(0); n != int64(len(seq)) {
		t.Fatalf("ExpandedLength(0) = %d, want %d", n, len(seq))
	}
}

func TestEventCount(t *testing.T) {
	g := build(t, seqOf("aabbaabb"))
	if g.EventCount() != 8 {
		t.Fatalf("EventCount = %d, want 8", g.EventCount())
	}
}

func TestSymAccessors(t *testing.T) {
	s := Terminal(12)
	if !s.IsTerminal() || s.Event() != 12 {
		t.Fatalf("terminal accessors broken: %v", s)
	}
	n := NonTerminal(3)
	if n.IsTerminal() || n.RuleIndex() != 3 {
		t.Fatalf("non-terminal accessors broken: %v", n)
	}
	if s.String() != "t12" || n.String() != "R3" {
		t.Fatalf("String: %q %q", s.String(), n.String())
	}
}

func TestDumpStable(t *testing.T) {
	g := build(t, seqOf("abcabc"))
	d1 := g.Dump(nil)
	d2 := g.Dump(nil)
	if d1 != d2 {
		t.Fatalf("Dump is not deterministic:\n%s\n---\n%s", d1, d2)
	}
	if d1 == "" {
		t.Fatal("Dump returned empty string")
	}
}

func TestDumpWithNames(t *testing.T) {
	g := build(t, []int32{0, 1, 0, 1})
	names := []string{"Send", "Recv"}
	d := g.Dump(func(id int32) string { return names[id] })
	if d == "" {
		t.Fatal("empty dump")
	}
	for _, want := range names {
		found := false
		for i := 0; i+len(want) <= len(d); i++ {
			if d[i:i+len(want)] == want {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("dump missing %q:\n%s", want, d)
		}
	}
}

func BenchmarkAppendRegular(b *testing.B) {
	b.ReportAllocs()
	g := New()
	for i := 0; i < b.N; i++ {
		g.Append(int32(i % 4))
	}
}

func BenchmarkAppendIrregular(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(7))
	g := New()
	for i := 0; i < b.N; i++ {
		g.Append(int32(rng.Intn(64)))
	}
}

func BenchmarkAppendNestedLoops(b *testing.B) {
	b.ReportAllocs()
	g := New()
	for i := 0; i < b.N; i++ {
		switch {
		case i%23 == 22:
			g.Append(99)
		case i%2 == 0:
			g.Append(0)
		default:
			g.Append(1)
		}
	}
}

// TestAppendSteadyStateZeroAlloc: once a periodic nested-loop stream has
// warmed the node and rule pools, the digram table and the pending stack,
// an Append allocates nothing — each iteration's rule churn (match creates a
// rule, drainPending inlines it moments later) is served from the pools, and
// registering a rule's users is pointer writes on the nodes themselves.
func TestAppendSteadyStateZeroAlloc(t *testing.T) {
	// One period: a { b (c d)^3 e }^4 f, 34 events.
	var period []int32
	period = append(period, 0)
	for mid := 0; mid < 4; mid++ {
		period = append(period, 1)
		for inner := 0; inner < 3; inner++ {
			period = append(period, 2, 3)
		}
		period = append(period, 4)
	}
	period = append(period, 5)

	g := New()
	i := 0
	next := func() { g.Append(period[i%len(period)]); i++ }
	for i < 200*len(period) {
		next()
	}
	if allocs := testing.AllocsPerRun(50*len(period), next); allocs != 0 {
		t.Fatalf("steady-state Append allocates %v times per event, want 0", allocs)
	}
	if err := g.CheckInvariantsStrict(); err != nil {
		t.Fatal(err)
	}
	if g.RuleCount() > 8 {
		t.Fatalf("periodic stream reduced to %d rules: not the steady state this test is about", g.RuleCount())
	}

	// The confirming fast path on a CG-shaped loop, P = [2^2 3 4 5]^12 6 7,
	// in cycles of P^140 and a noise event: a cycle is longer than the
	// longest loop the fast path counts, so every cycle re-arms P afresh
	// after the noise. A window starts with a structure read mid-repetition
	// — Walk, which disarms the loop exactly as Freeze does without
	// allocating a snapshot — and spans one cycle: the resumption, counted
	// completions, the divergence at the noise, a new snapshot and a fresh
	// arming. Once the confirmer's buffers have grown, none of it
	// allocates.
	var cycle []int32
	for p := 0; p < 140; p++ {
		for i := 0; i < 12; i++ {
			cycle = append(cycle, 2, 2, 3, 4, 5)
		}
		cycle = append(cycle, 6, 7)
	}
	cycle = append(cycle, 9)
	if len(cycle) <= confirmMaxLen {
		t.Fatalf("a %d-event cycle is short enough to be counted as one loop", len(cycle))
	}
	g = New()
	i = 0
	feed := func(n int) {
		for end := i + n; i < end; i++ {
			g.Append(cycle[i%len(cycle)])
		}
	}
	stop := func(int32) bool { return false }
	window := func() {
		g.Walk(stop)
		feed(len(cycle))
		if g.cf.pos == 0 {
			t.Fatalf("window ends between repetitions: the next has nothing to resume")
		}
	}
	feed(3*len(cycle) + 1000)
	g.Freeze() // the first window resumes after a Freeze
	confirmed := g.cf.confirmed
	if allocs := testing.AllocsPerRun(4, window); allocs != 0 {
		t.Fatalf("the armed loop allocates %v times per cycle, want 0", allocs)
	}
	if n := g.cf.confirmed - confirmed; n < int64(5*len(cycle))*9/10 {
		t.Fatalf("five cycles counted %d of %d events: the loop is not armed", n, 5*len(cycle))
	}
	if err := g.CheckInvariantsStrict(); err != nil {
		t.Fatal(err)
	}
}

// TestAppendRunEquivalence: AppendRun(e, k) must produce a grammar that
// unfolds identically to k successive Append(e) calls, whatever the
// surrounding sequence.
func TestAppendRunEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		a := New()
		b := New()
		var want []int32
		for step := 0; step < 60; step++ {
			e := int32(rng.Intn(4))
			k := uint32(1 + rng.Intn(5))
			a.AppendRun(e, k)
			for i := uint32(0); i < k; i++ {
				b.Append(e)
				want = append(want, e)
			}
		}
		if err := a.CheckInvariantsStrict(); err != nil {
			t.Fatalf("trial %d: AppendRun invariants: %v", trial, err)
		}
		ga, gb := a.Unfold(), b.Unfold()
		if !reflect.DeepEqual(ga, want) || !reflect.DeepEqual(gb, want) {
			t.Fatalf("trial %d: unfolds diverge", trial)
		}
	}
}

func TestAppendRunZeroIsNoop(t *testing.T) {
	g := New()
	g.AppendRun(1, 0)
	if g.EventCount() != 0 {
		t.Fatal("AppendRun(_, 0) recorded events")
	}
}

// TestCheckInvariantsUserList: each way a rule's user list can go wrong is
// reported — a referencing run missing, asymmetric links, a foreign node
// listed, and links left on pooled nodes and rules.
func TestCheckInvariantsUserList(t *testing.T) {
	// Two nested loops: several rules, each with at least two users, plus
	// pooled nodes and rules from the churn on the way there.
	var seq []int32
	for i := 0; i < 6; i++ {
		seq = append(seq, 0, 1, 2, 0, 1, 3, 4, 2, 4, 3)
	}
	// A rule (not the root) with two or more distinct user nodes.
	shared := func(g *Grammar) *rule {
		for _, r := range g.rules[1:] {
			if r != nil && r.users != nil && r.users.userNext != nil {
				return r
			}
		}
		t.Fatal("no rule with two user nodes")
		return nil
	}
	for name, corrupt := range map[string]func(g *Grammar){
		"dropped user": func(g *Grammar) {
			r := shared(g)
			r.unlinkUser(r.users)
		},
		"asymmetric links": func(g *Grammar) {
			shared(g).users.userNext.userPrev = nil
		},
		"foreign node listed": func(g *Grammar) {
			r := shared(g)
			r.linkUser(g.root().first())
		},
		"pooled node linked": func(g *Grammar) {
			if len(g.nodePool) == 0 {
				t.Fatal("empty node pool")
			}
			g.nodePool[0].userNext = g.root().first()
		},
		"pooled rule listed": func(g *Grammar) {
			if len(g.rulePool) == 0 {
				t.Fatal("empty rule pool")
			}
			g.rulePool[0].users = g.root().first()
		},
	} {
		g := buildChecked(t, seq)
		corrupt(g)
		if err := g.CheckInvariants(); err == nil {
			t.Errorf("%s: CheckInvariants did not notice", name)
		} else {
			t.Logf("%s: %v", name, err)
		}
	}
}
