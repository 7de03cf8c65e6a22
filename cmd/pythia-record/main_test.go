package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faultinject"
	"repro/pythia"
)

// TestFinishFailureIsAnError drives the recorder into a contained internal
// panic (a clock that faults mid-run) and checks the failure surfaces as a
// run() error carrying the cause — the user must see a non-zero exit and
// why, never a silent bad trace or a stack trace.
func TestFinishFailureIsAnError(t *testing.T) {
	orig := newRecordOracle
	defer func() { newRecordOracle = orig }()
	newRecordOracle = func(opts ...pythia.RecordOption) *pythia.Oracle {
		// The injected clock overrides -record's WithoutTimestamps and
		// panics inside Submit after 5 events; containment degrades the
		// oracle and Finish must then fail.
		opts = append(opts, pythia.WithClock(faultinject.PanicClock(5)))
		return pythia.NewRecordOracle(opts...)
	}

	var out bytes.Buffer
	err := run([]string{"-app", "EP", "-class", "small", "-o", filepath.Join(t.TempDir(), "ep.pythia")}, &out)
	if err == nil {
		t.Fatal("run() succeeded with a degraded oracle")
	}
	msg := err.Error()
	if !strings.Contains(msg, "degraded") || !strings.Contains(msg, "panic") {
		t.Fatalf("error does not carry the contained-panic cause: %v", err)
	}
}

func TestRecordSaveErrorIsAnError(t *testing.T) {
	// Output path inside a directory that does not exist: Save must fail
	// and run() must surface it.
	err := run([]string{"-app", "EP", "-class", "small",
		"-o", filepath.Join(t.TempDir(), "no-such-dir", "ep.pythia")}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "saving trace") {
		t.Fatalf("missing save error, got %v", err)
	}
}

// TestCheckpointAndResume runs a recording with a checkpoint journal, then
// exercises -resume against the journal the run left behind (a real crash
// is exercised in internal/faultinject; here the flag plumbing is under
// test).
func TestCheckpointAndResume(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "journal")
	trace := filepath.Join(dir, "ep.pythia")

	var out bytes.Buffer
	err := run([]string{"-app", "EP", "-class", "small", "-o", trace,
		"-checkpoint", ckpt, "-checkpoint-every", "2"}, &out)
	if err != nil {
		t.Fatalf("recording with checkpoints: %v\n%s", err, out.String())
	}
	if _, err := pythia.LoadTraceSet(trace); err != nil {
		t.Fatalf("final trace unreadable: %v", err)
	}

	out.Reset()
	recovered := filepath.Join(dir, "recovered.pythia")
	err = run([]string{"-resume", "-checkpoint", ckpt, "-o", recovered}, &out)
	if err != nil {
		t.Fatalf("resume: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "recovered generation") {
		t.Fatalf("resume output missing recovery report:\n%s", out.String())
	}
	ts, err := pythia.LoadTraceSet(recovered)
	if err != nil {
		t.Fatalf("recovered trace unreadable: %v", err)
	}
	if ts.Provenance == nil || !ts.Provenance.Salvaged {
		t.Fatalf("recovered trace lacks salvaged provenance: %+v", ts.Provenance)
	}
}

func TestResumeRequiresJournal(t *testing.T) {
	if err := run([]string{"-resume"}, &bytes.Buffer{}); err == nil {
		t.Fatal("-resume without -checkpoint accepted")
	}
	if err := run([]string{"-resume", "-checkpoint", t.TempDir(),
		"-o", filepath.Join(t.TempDir(), "out.pythia")}, &bytes.Buffer{}); err == nil {
		t.Fatal("-resume on an empty journal succeeded")
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
