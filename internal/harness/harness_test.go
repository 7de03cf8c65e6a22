package harness

import (
	"strings"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/ompsim"
)

func TestSummarise(t *testing.T) {
	s := Summarise([]time.Duration{3, 1, 2})
	if s.Min != 1 || s.Max != 3 || s.Mean != 2 || s.N != 3 {
		t.Fatalf("Summarise = %+v", s)
	}
	if z := Summarise(nil); z.N != 0 {
		t.Fatalf("empty Summarise = %+v", z)
	}
}

func TestIsBlockingEvent(t *testing.T) {
	for _, name := range []string{"MPI_Wait", "MPI_Waitall", "MPI_Barrier",
		"MPI_Allreduce:0", "MPI_Recv:3", "MPI_Bcast:0"} {
		if !IsBlockingEvent(name) {
			t.Errorf("%q should be blocking", name)
		}
	}
	for _, name := range []string{"MPI_Isend:1", "MPI_Irecv:2", "GOMP_parallel_start.x"} {
		if IsBlockingEvent(name) {
			t.Errorf("%q should not be blocking", name)
		}
	}
}

func TestTable1SingleApp(t *testing.T) {
	rows, err := Table1(Table1Config{Class: apps.Small, Repetitions: 2, Apps: []string{"FT"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].App != "FT" {
		t.Fatalf("rows = %+v", rows)
	}
	if rows[0].Events == 0 || rows[0].Rules == 0 {
		t.Fatalf("missing counters: %+v", rows[0])
	}
	var sb strings.Builder
	WriteTable1(&sb, apps.Small, rows)
	if !strings.Contains(sb.String(), "FT") {
		t.Fatal("rendered table missing app name")
	}
}

// TestFig8ShapeBT checks the headline Fig. 8 property on the most regular
// solver: accuracy is essentially perfect at short distances on every
// working set, because BT's structure does not depend on the problem size.
func TestFig8ShapeBT(t *testing.T) {
	rows, err := Fig8(Fig8Config{Apps: []string{"BT"}, Distances: []int{1, 8, 64},
		MaxSamplesPerRank: 20})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Samples == 0 {
			t.Fatalf("no samples for %+v", r)
		}
		if r.Accuracy < 0.9 {
			t.Errorf("BT %s x=%d accuracy %.2f, want >= 0.9", r.Class, r.Distance, r.Accuracy)
		}
	}
	var sb strings.Builder
	WriteFig8(&sb, []int{1, 8, 64}, rows)
	if !strings.Contains(sb.String(), "BT") {
		t.Fatal("rendered figure missing app")
	}
}

// TestFig8LoopBoundaryDegradation: LU's inner loop length grows with the
// working set, so long-distance predictions from a small-class trace must
// degrade on the large class relative to the small class.
func TestFig8LoopBoundaryDegradation(t *testing.T) {
	rows, err := Fig8(Fig8Config{Apps: []string{"LU"}, Distances: []int{1, 128},
		MaxSamplesPerRank: 40})
	if err != nil {
		t.Fatal(err)
	}
	acc := map[apps.Class]map[int]float64{}
	for _, r := range rows {
		if acc[r.Class] == nil {
			acc[r.Class] = map[int]float64{}
		}
		acc[r.Class][r.Distance] = r.Accuracy
	}
	if acc[apps.Small][1] < 0.95 {
		t.Errorf("LU small x=1 accuracy %.2f, want ~1", acc[apps.Small][1])
	}
	if acc[apps.Large][128] >= acc[apps.Small][128] {
		t.Errorf("LU large x=128 accuracy (%.2f) should degrade vs small (%.2f)",
			acc[apps.Large][128], acc[apps.Small][128])
	}
}

// TestFig9CostGrowsWithDistance checks what the Fig. 9 experiment reports,
// for shape only: on the serving path PredictAt is answered from the
// prediction window, so a faithful replay costs about the same at distance
// 1 and 64, and the order of two 16-sample wall-clock means is decided by
// whatever else runs on the host. The paper's claim, that cost grows with
// the distance, is about the walk, and is checked where the frontier walk
// runs per query: predictor.TestWalkCostGrowsWithDistance.
func TestFig9CostGrowsWithDistance(t *testing.T) {
	rows, err := Fig9(Fig9Config{Apps: []string{"CG"}, Distances: []int{1, 64}, MaxSamples: 16})
	if err != nil {
		t.Fatal(err)
	}
	byDist := map[int]Fig9Row{}
	for _, r := range rows {
		byDist[r.Distance] = r
	}
	for _, d := range []int{1, 64} {
		if r, ok := byDist[d]; !ok || r.App != "CG" || r.Samples <= 0 || r.MeanCost <= 0 {
			t.Errorf("distance %d: row %+v (present %v), want CG with samples and a positive cost", d, r, ok)
		}
	}
	var sb strings.Builder
	WriteFig9(&sb, []int{1, 64}, rows)
	if !strings.Contains(sb.String(), "CG") {
		t.Fatal("rendered figure missing app")
	}
}

// TestFig10Shape reproduces the section III-D3 findings on the virtual
// 24-core machine: prediction wins clearly at small problem sizes and the
// advantage shrinks as the problem grows; recording costs nothing on the
// virtual clock.
func TestFig10Shape(t *testing.T) {
	m := ompsim.Pudding()
	pts := []LuleshPoint{}
	for _, s := range []int{10, 30, 50} {
		p := luleshPoint(m, m.Cores, int64(s))
		p.X = s
		pts = append(pts, p)
	}
	for _, p := range pts {
		if p.RecordNs != p.VanillaNs {
			t.Errorf("s=%d: record (%d) != vanilla (%d) on virtual clock", p.X, p.RecordNs, p.VanillaNs)
		}
		if p.PredictNs >= p.VanillaNs {
			t.Errorf("s=%d: predict (%d) not faster than vanilla (%d)", p.X, p.PredictNs, p.VanillaNs)
		}
	}
	if !(pts[0].ImprovementPct > pts[2].ImprovementPct) {
		t.Errorf("improvement should shrink with problem size: %+v", pts)
	}
	if pts[1].ImprovementPct < 15 || pts[1].ImprovementPct > 60 {
		t.Errorf("s=30 improvement %.1f%%, expected the paper's ballpark (~38%%)", pts[1].ImprovementPct)
	}
}

// TestFig12Shape: at low thread ceilings all configurations tie; at high
// ceilings predict wins.
func TestFig12Shape(t *testing.T) {
	m := ompsim.Pudding()
	low := luleshPoint(m, 2, 30)
	high := luleshPoint(m, 24, 30)
	lowGap := float64(low.VanillaNs-low.PredictNs) / float64(low.VanillaNs)
	if lowGap > 0.10 {
		t.Errorf("at 2 threads the gap should be small, got %.1f%%", lowGap*100)
	}
	if high.ImprovementPct < 15 {
		t.Errorf("at 24 threads improvement %.1f%%, want substantial", high.ImprovementPct)
	}
}

// TestFig14Shape: performance degrades monotonically-ish towards vanilla as
// the error rate rises.
func TestFig14Shape(t *testing.T) {
	rows := Fig14(3)
	if len(rows) != len(Fig14ErrorRates) {
		t.Fatalf("got %d rows", len(rows))
	}
	first, last := rows[0], rows[len(rows)-1]
	if first.PredictNs >= first.VanillaNs {
		t.Errorf("clean predict (%d) should beat vanilla (%d)", first.PredictNs, first.VanillaNs)
	}
	if last.PredictNs <= first.PredictNs {
		t.Errorf("predict at error rate 1.0 (%d) should be slower than clean (%d)",
			last.PredictNs, first.PredictNs)
	}
	var sb strings.Builder
	WriteFig14(&sb, rows)
	if !strings.Contains(sb.String(), "error rate") {
		t.Fatal("rendered figure broken")
	}
}

func TestFig7Renders(t *testing.T) {
	var sb strings.Builder
	if err := Fig7(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"R0 ->", "Bcast", "Barrier"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Fig 7 output missing %q:\n%s", want, out)
		}
	}
}

func TestWriteLuleshPoints(t *testing.T) {
	var sb strings.Builder
	WriteLuleshPoints(&sb, "Fig 10", "size", []LuleshPoint{{X: 10, VanillaNs: 1e6, PredictNs: 8e5}})
	if !strings.Contains(sb.String(), "Fig 10") {
		t.Fatal("title missing")
	}
}

// TestHybridRecordingIncludesOMPEvents: the paper instruments hybrid
// applications with BOTH runtimes; a recorded hybrid trace must contain
// GOMP region events interleaved into the rank streams.
func TestHybridRecordingIncludesOMPEvents(t *testing.T) {
	app, err := apps.ByName("miniFE")
	if err != nil {
		t.Fatal(err)
	}
	run := RunMPIApp(app, apps.Small, true, 42)
	foundGOMP, foundMPI := false, false
	for _, name := range run.Trace.Events {
		if strings.HasPrefix(name, "GOMP_parallel_start.") {
			foundGOMP = true
		}
		if strings.HasPrefix(name, "MPI_") {
			foundMPI = true
		}
	}
	if !foundGOMP || !foundMPI {
		t.Fatalf("hybrid trace events incomplete: GOMP=%v MPI=%v", foundGOMP, foundMPI)
	}
	// The streams interleave: a rank's unfolding must mix both prefixes.
	stream := run.Trace.Threads[0].Grammar.Unfold()
	var sawG, sawM bool
	for _, id := range stream {
		name := run.Trace.Events[id]
		if strings.HasPrefix(name, "GOMP_") {
			sawG = true
		}
		if strings.HasPrefix(name, "MPI_") {
			sawM = true
		}
	}
	if !sawG || !sawM {
		t.Fatal("rank 0 stream does not interleave MPI and OpenMP events")
	}
}

// TestExtRanksSmoke: same-configuration replay is perfect; changed rank
// count degrades and produces unknown events.
func TestExtRanksSmoke(t *testing.T) {
	rows, err := ExtRanks([]string{"BT"}, 4, []int{4, 8}, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	same, changed := rows[0], rows[1]
	if same.Accuracy < 0.99 {
		t.Fatalf("same-config accuracy %.2f, want ~1", same.Accuracy)
	}
	if changed.Accuracy >= same.Accuracy {
		t.Fatalf("changed-config accuracy %.2f did not degrade", changed.Accuracy)
	}
	if changed.UnknownPct == 0 {
		t.Fatal("changed rank count produced no unknown events")
	}
	var sb strings.Builder
	WriteExtRanks(&sb, rows)
	if !strings.Contains(sb.String(), "BT") {
		t.Fatal("rendering broken")
	}
}

// TestExtDurationSmoke: region duration predictions on the virtual clock are
// accurate to a few percent for steady-state regions.
func TestExtDurationSmoke(t *testing.T) {
	rows, err := ExtDuration(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no duration rows")
	}
	accurate := 0
	for _, r := range rows {
		if r.MeanErrPct < 5 {
			accurate++
		}
	}
	if accurate < len(rows)*3/4 {
		t.Fatalf("only %d of %d regions predicted within 5%%", accurate, len(rows))
	}
	var sb strings.Builder
	WriteExtDuration(&sb, 10, rows)
	if !strings.Contains(sb.String(), "worst per-region") {
		t.Fatal("rendering broken")
	}
}
