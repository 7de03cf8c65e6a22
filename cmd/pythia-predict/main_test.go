package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/harness"
	"repro/pythia"
)

// recordTrace records a small reference trace for the given app into dir
// and returns its path, mirroring what `pythia-record -o` would produce.
func recordTrace(t *testing.T, dir, name string) string {
	t.Helper()
	app, err := apps.ByName(name)
	if err != nil {
		t.Fatalf("app %s: %v", name, err)
	}
	oracle := pythia.NewRecordOracle(pythia.WithoutTimestamps())
	harness.RunMPIAppWithOracle(oracle, app, apps.Small, 42)
	ts, err := oracle.Finish()
	if err != nil {
		t.Fatalf("finish: %v", err)
	}
	path := filepath.Join(dir, name+".pythia")
	if err := pythia.SaveTraceSet(path, ts); err != nil {
		t.Fatalf("save: %v", err)
	}
	return path
}

// TestReplayReportsAccuracy is the happy path: replay EP.small against its
// own trace and check the report carries the tracking line and one accuracy
// row per requested distance.
func TestReplayReportsAccuracy(t *testing.T) {
	trace := recordTrace(t, t.TempDir(), "EP")
	var out bytes.Buffer
	err := run([]string{"-app", "EP", "-class", "small", "-trace", trace,
		"-distances", "1,8"}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	report := out.String()
	for _, want := range []string{"EP.small replayed against", "tracking: followed",
		"distance   1:", "distance   8:"} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}
}

// TestMatchesFig8 replays AMG.large against an AMG.small trace, the
// pairing and seeds of Fig. 8, and checks that every distance reports
// exactly Fig. 8's accuracy and sample count: the tool and the figure score
// the same query points.
func TestMatchesFig8(t *testing.T) {
	trace := recordTrace(t, t.TempDir(), "AMG")
	var out bytes.Buffer
	if err := run([]string{"-app", "AMG", "-class", "large", "-trace", trace}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	rows, err := harness.Fig8(harness.Fig8Config{Apps: []string{"AMG"}})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, r := range rows {
		if r.Class != apps.Large {
			continue
		}
		n++
		want := fmt.Sprintf("distance %3d: accuracy %5.1f%%  (%d samples)\n", r.Distance, r.Accuracy*100, r.Samples)
		if !strings.Contains(out.String(), want) {
			t.Errorf("report lacks Fig. 8's line %q:\n%s", want, out.String())
		}
	}
	if n != len(harness.DefaultDistances) {
		t.Fatalf("Fig. 8 has %d AMG.large rows, want %d", n, len(harness.DefaultDistances))
	}
}

// TestMissingTraceIsAnError: a nonexistent trace path must surface as a
// run() error naming the load failure, which main turns into exit 1.
func TestMissingTraceIsAnError(t *testing.T) {
	err := run([]string{"-app", "EP", "-class", "small",
		"-trace", filepath.Join(t.TempDir(), "no-such.pythia")}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "loading trace") {
		t.Fatalf("missing trace did not fail with a load error, got %v", err)
	}
}

func TestTraceFlagRequired(t *testing.T) {
	err := run([]string{"-app", "EP", "-class", "small"}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "-trace is required") {
		t.Fatalf("missing -trace accepted, got %v", err)
	}
}

// TestCorruptTraceIsAnError: garbage bytes in place of a trace must fail at
// load time with an error that names the file problem, never a panic or a
// silent zero-accuracy report.
func TestCorruptTraceIsAnError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corrupt.pythia")
	if err := os.WriteFile(path, []byte("this is not a pythia trace\x00\x01\x02"), 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	err := run([]string{"-app", "EP", "-class", "small", "-trace", path}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "loading trace") {
		t.Fatalf("corrupt trace did not fail with a load error, got %v", err)
	}
}

func TestBadDistanceIsAnError(t *testing.T) {
	trace := recordTrace(t, t.TempDir(), "EP")
	err := run([]string{"-app", "EP", "-class", "small", "-trace", trace,
		"-distances", "1,banana"}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "bad distance") {
		t.Fatalf("bad -distances accepted, got %v", err)
	}
	err = run([]string{"-app", "EP", "-class", "small", "-trace", trace,
		"-distances", "1,0"}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "bad distance") {
		t.Fatalf("distance 0 accepted, got %v", err)
	}
}

// TestHelpSucceeds: -h prints the usage and is not a failure.
func TestHelpSucceeds(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-h"}, &out); err != nil {
		t.Fatalf("run(-h) = %v, want nil", err)
	}
	if out.Len() != 0 {
		t.Fatalf("run(-h) wrote %q to stdout", out.String())
	}
}
