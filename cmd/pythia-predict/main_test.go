package main

import (
	"bytes"
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
		"-distances", "1,8", "-samples", "20"}, &out)
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
