package harness

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/ompsim"
)

var update = flag.Bool("update", false, "rewrite testdata/paper.golden from this build")

// goldenFig8Apps is the Fig. 8 subset the golden pins, in pythia-paper's
// order: the rows that move when prediction across working sets or
// re-anchoring changes (FT, LU, MG, AMG, Kripke, Quicksilver), plus BT.
// The BT and LU shape tests read the same rows.
var goldenFig8Apps = []string{"BT", "FT", "LU", "MG", "AMG", "Kripke", "Quicksilver"}

var goldenFig8 struct {
	once sync.Once
	rows []Fig8Row
	err  error
}

// goldenFig8Rows computes Fig. 8 for goldenFig8Apps once per test binary.
func goldenFig8Rows(t *testing.T) []Fig8Row {
	t.Helper()
	goldenFig8.once.Do(func() {
		goldenFig8.rows, goldenFig8.err = Fig8(Fig8Config{Apps: goldenFig8Apps})
	})
	if goldenFig8.err != nil {
		t.Fatal(goldenFig8.err)
	}
	return goldenFig8.rows
}

// TestPaperGolden renders every experiment whose numbers are exact counts
// (virtual time, grammar structure, prediction hits), with pythia-paper's
// titles and defaults, and compares the text with testdata/paper.golden.
// Fig. 8 covers goldenFig8Apps; Table I and Fig. 9 are wall-clock and
// stay out. A changed number is a changed paper result: regenerate with
// `go test ./internal/harness -run TestPaperGolden -update` and say why in
// CHANGES.md.
func TestPaperGolden(t *testing.T) {
	lulesh := func(title, x string, pts []LuleshPoint) func(io.Writer) error {
		return func(w io.Writer) error { return WriteLuleshPoints(w, title, x, pts) }
	}
	sections := []struct {
		name  string
		write func(io.Writer) error
	}{
		{"fig7", Fig7},
		{"fig8", func(w io.Writer) error { return WriteFig8(w, nil, goldenFig8Rows(t)) }},
		{"fig10", lulesh("Fig 10: Execution time of Lulesh vs problem size (pudding, 24 threads)",
			"size", Fig10(ompsim.Pudding()))},
		{"fig11", lulesh("Fig 11: Execution time of Lulesh vs problem size (pixel, 16 threads)",
			"size", Fig10(ompsim.Pixel()))},
		{"fig12", lulesh("Fig 12: Execution time of Lulesh vs max threads (pudding, s=30)",
			"max threads", Fig12(ompsim.Pudding()))},
		{"fig13", lulesh("Fig 13: Execution time of Lulesh vs max threads (pixel, s=30)",
			"max threads", Fig12(ompsim.Pixel()))},
		{"fig14", func(w io.Writer) error { return WriteFig14(w, Fig14(5)) }},
		{"ext-ranks", func(w io.Writer) error {
			rows, err := ExtRanks([]string{"BT", "CG", "LU"}, 4, []int{4, 8})
			if err != nil {
				return err
			}
			return WriteExtRanks(w, rows)
		}},
		{"ext-duration", func(w io.Writer) error {
			rows, err := ExtDuration(30)
			if err != nil {
				return err
			}
			return WriteExtDuration(w, 30, rows)
		}},
	}
	var got bytes.Buffer
	for _, s := range sections {
		got.WriteString("== " + s.name + " ==\n")
		if err := s.write(&got); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		got.WriteString("\n")
	}

	path := filepath.Join("testdata", "paper.golden")
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	g, w := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(g), len(w)); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			t.Errorf("%s:%d differs\n got: %q\nwant: %q", path, i+1, gl, wl)
		}
	}
}
