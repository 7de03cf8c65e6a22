package grammar

import "testing"

func FuzzGrammarRoundTrip(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 1, 2}, uint8(3))
	f.Add([]byte{1, 1, 1, 1, 1, 1, 1, 1}, uint8(2))
	f.Add([]byte{0, 1, 0, 2, 0, 1, 0, 2, 0, 1}, uint8(4))
	f.Fuzz(func(t *testing.T, raw []byte, alphabet uint8) {
		k := int32(alphabet%8) + 1
		g := New()
		seq := make([]int32, len(raw))
		for i, b := range raw {
			seq[i] = int32(b) % k
			g.Append(seq[i])
		}
		if err := g.CheckInvariantsStrict(); err != nil {
			t.Fatalf("invariants: %v", err)
		}
		got := g.Unfold()
		if len(got) != len(seq) {
			t.Fatalf("unfold length %d, want %d", len(got), len(seq))
		}
		for i := range got {
			if got[i] != seq[i] {
				t.Fatalf("unfold[%d] = %d, want %d", i, got[i], seq[i])
			}
		}
		// The frozen form must agree with the live form.
		fr := g.Freeze()
		if err := fr.Validate(); err != nil {
			t.Fatalf("frozen validate: %v", err)
		}
		fg := fr.Unfold()
		for i := range fg {
			if fg[i] != seq[i] {
				t.Fatalf("frozen unfold[%d] differs", i)
			}
		}
	})
}

func FuzzPlainMatchesRunLength(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 0, 1})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 512 {
			raw = raw[:512]
		}
		rl := New()
		pl := NewPlain()
		for _, b := range raw {
			e := int32(b % 5)
			rl.Append(e)
			pl.Append(e)
		}
		a, b := rl.Unfold(), pl.Unfold()
		if len(a) != len(b) {
			t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("engines disagree at %d", i)
			}
		}
	})
}
