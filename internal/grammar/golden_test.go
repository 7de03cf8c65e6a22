package grammar_test

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/apps"
	"repro/internal/events"
	"repro/internal/grammar"
	"repro/internal/harness"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/frozen_rules.golden from the current engine")

// TestFrozenRulesGolden pins the exact reduction of the 13 evaluation
// kernels at class small: rule numbering, bodies, run counts and Users order
// of every rank's Freeze(). The golden was generated before the rule-user
// bookkeeping moved from a Go map to the intrusive list, so it holds the
// grammars the map-based engine built; any bookkeeping change that alters
// which user inline picks, or the order rules are created and recycled in,
// shows up here as a digest mismatch. One line per kernel — the counts are
// there to make a mismatch readable, the digest to make it exact.
func TestFrozenRulesGolden(t *testing.T) {
	var got bytes.Buffer
	for _, app := range apps.All() {
		streams := harness.CaptureStreams(app, apps.Small, 42)
		tids := make([]int32, 0, len(streams))
		for tid := range streams {
			tids = append(tids, tid)
		}
		sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })

		h := sha256.New()
		total, rules, runs := 0, 0, 0
		for _, tid := range tids {
			// Event ids are interned per rank in first-seen order, so the
			// grammar does not depend on how the ranks interleaved.
			reg := events.NewRegistry()
			g := grammar.New()
			for _, name := range streams[tid] {
				g.Append(int32(reg.Intern(name)))
			}
			if err := g.CheckInvariantsStrict(); err != nil {
				t.Fatalf("%s rank %d: %v", app.Name, tid, err)
			}
			f := g.Freeze()
			total += len(streams[tid])
			rules += len(f.Rules)
			fmt.Fprintf(h, "rank %d\n", tid)
			for ri, r := range f.Rules {
				runs += len(r.Body)
				fmt.Fprintf(h, "R%d occ=%d len=%d body=%v users=%v\n", ri, r.Occ, r.Len, r.Body, r.Users)
			}
		}
		fmt.Fprintf(&got, "%s ranks=%d events=%d rules=%d runs=%d sha256=%x\n",
			app.Name, len(tids), total, rules, runs, h.Sum(nil))
	}

	path := filepath.Join("testdata", "frozen_rules.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("frozen grammars differ from the golden:\n--- got\n%s--- want\n%s", got.Bytes(), want)
	}
}
