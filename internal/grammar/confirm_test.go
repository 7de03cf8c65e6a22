package grammar

import (
	"reflect"
	"testing"
)

// decodeLoopStream turns fuzz bytes into a loop-heavy stream of appends
// with noise, and the append counts after which to Freeze. The first bytes
// define four motifs — up to eight items each, an item being an event or
// (from the second motif on) up to eight repetitions of an earlier motif —
// and the rest is a program of noise (one event, or an AppendRun of two to
// five), runs of two to seventeen repetitions of a motif, and Freeze points.
// A motif's events are single Appends.
func decodeLoopStream(data []byte) (appends []Run, freezes []int) {
	pos := 0
	next := func() byte {
		if pos < len(data) {
			pos++
			return data[pos-1]
		}
		return 0
	}
	const maxMotif = 512
	var motifs [4][]int32
	for m := range motifs {
		for n := 1 + int(next()&7); n > 0; n-- {
			b := next()
			if m == 0 || b&0x80 == 0 {
				motifs[m] = append(motifs[m], int32(b&7))
				continue
			}
			sub := motifs[int(b>>4&7)%m]
			for r := 0; r <= int(b&7) && len(motifs[m])+len(sub) <= maxMotif; r++ {
				motifs[m] = append(motifs[m], sub...)
			}
		}
	}
	for pos < len(data) && len(appends) < fuzzMaxEvents {
		b := next()
		switch b >> 6 {
		case 0:
			count := uint32(1)
			if b&0x20 != 0 {
				count = 2 + uint32(b>>3&3)
			}
			appends = append(appends, Run{Terminal(int32(b & 7)), count})
		case 3:
			freezes = append(freezes, len(appends))
		default:
			for r := 0; r < 2+int(b>>2&15); r++ {
				for _, e := range motifs[b&3] {
					appends = append(appends, Run{Terminal(e), 1})
				}
			}
		}
	}
	if len(appends) > fuzzMaxEvents {
		appends = appends[:fuzzMaxEvents]
	}
	return appends, freezes
}

// expandRuns returns the events a list of appends records.
func expandRuns(appends []Run) []int32 {
	var out []int32
	for _, a := range appends {
		for i := uint32(0); i < a.Count; i++ {
			out = append(out, a.Sym.Event())
		}
	}
	return out
}

// confirmSeeds are streams the confirmer has to get right.
var confirmSeeds = [][]byte{
	// Motif 0 = a b, motif 1 = x: (ab)^2 x (ab)^9 x (ab)^5 x … — once the
	// first loop is a rule R, (R, x) already occurs when the next loop's run
	// R^k meets an x, and match takes min over k: the count-sensitive case.
	{0x01, 0x00, 0x01, 0x00, 0x02, 0x00, 0x03, 0x00, 0x04,
		0x40, 0x02, 0x5c, 0x02, 0x4c, 0x02, 0xc0, 0x68, 0x02, 0x5c, 0x02, 0x7c, 0x02},
	// Loops of 7 7 3 with AppendRun noise in between, found by a random
	// search against a build whose confirmer ignored the taints on a
	// window.
	{0xe2, 0xb7, 0xe7, 0x93, 0xa5, 0x8b, 0xe3, 0xd8, 0x9d, 0x66, 0x2d, 0xbf, 0x51, 0x67,
		0xc0, 0x63, 0xce, 0x59, 0x82, 0xed, 0x69, 0x46, 0xff, 0xba, 0x27, 0x0b, 0x89},
	// CG's shape: motif 0 = 2 2 3 4 5, motif 1 = motif 0 ×12 then 6 7;
	// motif 1 ×17, a Freeze, ×10, noise, ×17.
	{0x04, 0x02, 0x02, 0x03, 0x04, 0x05, 0x03, 0x87, 0x83, 0x06, 0x07, 0x00, 0x01, 0x00, 0x01,
		0x7d, 0xc0, 0x61, 0x05, 0x7d},
	// Two nested loops sharing events, with Freezes inside repetitions.
	{0x02, 0x00, 0x01, 0x02, 0x02, 0x82, 0x03, 0x01, 0x92, 0x04, 0x00, 0x05,
		0x45, 0x46, 0xc0, 0x66, 0xc0, 0x45, 0x01, 0x7e, 0xc0, 0x47},
	// Motif 0 = 0 1 2, motif 1 = motif 0 ×3 then 3: runs of either, and
	// Freezes back to back.
	{0x02, 0x00, 0x01, 0x02, 0x01, 0x82, 0x03, 0x00, 0x04, 0x00, 0x05,
		0x4d, 0xc0, 0x50, 0x5d, 0xc0, 0xc0},
	// Motif 0 = 1 1 1 2, first arriving as AppendRun(1, 3) then 2, three
	// times, then as single Appends: a repetition holding an AppendRun of
	// more than one event is not one the fast path may count.
	{0x03, 0x01, 0x01, 0x01, 0x02, 0x00, 0x03, 0x00, 0x04, 0x00, 0x05,
		0x29, 0x02, 0x29, 0x02, 0x29, 0x02, 0x50, 0xc0, 0x29, 0x02, 0x50},
	{},
}

// FuzzConfirmDiff holds the confirming fast path to the reduction alone
// (NewReference) on loop-heavy streams with noise and fuzz-chosen Freeze
// points: EventCount, RuleCount and NodeCount agree after every append,
// Freeze() agrees at every Freeze point, and at the end Freeze() agrees,
// Unfold() gives back the stream and both pass the strict invariants.
func FuzzConfirmDiff(f *testing.F) {
	for _, s := range confirmSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		appends, freezes := decodeLoopStream(data)
		fast, ref := New(), NewReference()
		for i := 0; i <= len(appends); i++ {
			for len(freezes) > 0 && freezes[0] == i {
				freezes = freezes[1:]
				if a, b := fast.Freeze(), ref.Freeze(); !reflect.DeepEqual(a.Rules, b.Rules) {
					t.Fatalf("Freeze after %d appends:\n%s\nreference:\n%s", i, a.Dump(nil), b.Dump(nil))
				}
			}
			if i == len(appends) {
				break
			}
			fast.AppendRun(appends[i].Sym.Event(), appends[i].Count)
			ref.AppendRun(appends[i].Sym.Event(), appends[i].Count)
			if fast.EventCount() != ref.EventCount() || fast.RuleCount() != ref.RuleCount() || fast.NodeCount() != ref.NodeCount() {
				t.Fatalf("after %d appends: events/rules/nodes %d/%d/%d, reference %d/%d/%d", i+1,
					fast.EventCount(), fast.RuleCount(), fast.NodeCount(), ref.EventCount(), ref.RuleCount(), ref.NodeCount())
			}
		}
		if a, b := fast.Freeze(), ref.Freeze(); !reflect.DeepEqual(a.Rules, b.Rules) {
			t.Fatalf("final Freeze:\n%s\nreference:\n%s", a.Dump(nil), b.Dump(nil))
		}
		if got, want := fast.Unfold(), expandRuns(appends); len(want) > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("Unfold differs from the stream")
		}
		if err := fast.CheckInvariantsStrict(); err != nil {
			t.Fatal(err)
		}
		if err := ref.CheckInvariantsStrict(); err != nil {
			t.Fatalf("reference: %v", err)
		}
	})
}
