package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/tracefile"
	"repro/pythia"
)

// recordFixture records a small two-phase run with a checkpoint journal and
// returns the final trace path and the journal directory.
func recordFixture(t *testing.T) (trace, journal string) {
	t.Helper()
	dir := t.TempDir()
	trace = filepath.Join(dir, "run.pythia")
	journal = filepath.Join(dir, "journal")
	o := pythia.NewRecordOracle(
		pythia.WithoutTimestamps(),
		pythia.WithCheckpoint(pythia.CheckpointConfig{Dir: journal, EveryEvents: 16}),
	)
	a, b := o.Intern("phaseA"), o.Intern("phaseB")
	th := o.Thread(0)
	for i := 0; i < 200; i++ {
		th.Submit(a)
		th.Submit(b)
	}
	if err := o.FinishAndSave(trace); err != nil {
		t.Fatal(err)
	}
	return trace, journal
}

func TestInspectPrintsDurability(t *testing.T) {
	trace, _ := recordFixture(t)
	var out bytes.Buffer
	if err := run([]string{"-trace", trace, "-summary"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "durability: format v") || !strings.Contains(s, "crc ok") {
		t.Fatalf("missing durability line:\n%s", s)
	}
	// A cleanly finished trace carries no salvage provenance.
	if strings.Contains(s, "salvaged") {
		t.Fatalf("clean trace reported as salvaged:\n%s", s)
	}
}

// TestInspectPrintsTimedContexts: a timed recording of (a b)^200 is one
// rule of two runs under the root, so each event has two contexts (its run,
// and its run under the root's) and the summary counts four.
func TestInspectPrintsTimedContexts(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "timed.pythia")
	var now int64
	o := pythia.NewRecordOracle(pythia.WithClock(func() int64 { now += 10; return now }))
	a, b := o.Intern("phaseA"), o.Intern("phaseB")
	th := o.Thread(0)
	for i := 0; i < 200; i++ {
		th.Submit(a)
		th.Submit(b)
	}
	if err := o.FinishAndSave(trace); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-trace", trace, "-summary"}, &out); err != nil {
		t.Fatal(err)
	}
	if s := out.String(); !strings.Contains(s, "thread 0: 400 events, 2 rules, 4 timed contexts\n") {
		t.Fatalf("missing timed-contexts count:\n%s", s)
	}
}

func TestInspectPrintsSalvageProvenance(t *testing.T) {
	_, journal := recordFixture(t)
	ts, _, err := tracefile.Recover(journal)
	if err != nil {
		t.Fatal(err)
	}
	salvaged := filepath.Join(t.TempDir(), "salvaged.pythia")
	if err := pythia.SaveTraceSet(salvaged, ts); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-trace", salvaged, "-summary"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "salvaged from a crashed recording") {
		t.Fatalf("missing salvage provenance:\n%s", s)
	}
	if !strings.Contains(s, "truncation: 1/1 threads truncated") {
		t.Fatalf("missing truncation summary:\n%s", s)
	}
	if !strings.Contains(s, "truncated (+0 dropped)") {
		t.Fatalf("missing per-thread truncation marker:\n%s", s)
	}
}

func TestInspectDetectsCorruptCRC(t *testing.T) {
	trace, _ := recordFixture(t)
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff // damage the CRC trailer
	if err := os.WriteFile(trace, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// Loading fails, so run() errors — but the error must name the CRC.
	err = run([]string{"-trace", trace, "-summary"}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corrupt trace not surfaced as checksum error: %v", err)
	}
}

func TestInspectCheckpointJournal(t *testing.T) {
	_, journal := recordFixture(t)
	// Tear the newest generation so the scan shows both outcomes.
	sts, err := tracefile.ScanJournal(journal)
	if err != nil || len(sts) == 0 {
		t.Fatalf("journal scan: %v (%d generations)", err, len(sts))
	}
	newest := sts[len(sts)-1]
	if err := os.Truncate(newest.Path, 4); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if err := run([]string{"-checkpoints", journal}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "UNRECOVERABLE") {
		t.Fatalf("torn generation not flagged:\n%s", s)
	}
	if len(sts) > 1 && !strings.Contains(s, "<- freshest recoverable") {
		t.Fatalf("no recoverable generation marked:\n%s", s)
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
