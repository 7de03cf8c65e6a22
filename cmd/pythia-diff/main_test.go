package main

import (
	"bytes"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"repro/pythia"
)

// saveTrace records a one-thread run of the named events, repeated 50
// times, and returns the trace file's path.
func saveTrace(t *testing.T, dir, file string, names ...string) string {
	t.Helper()
	o := pythia.NewRecordOracle(pythia.WithoutTimestamps())
	th := o.Thread(0)
	for i := 0; i < 50; i++ {
		for _, n := range names {
			th.Submit(o.Intern(n))
		}
	}
	path := filepath.Join(dir, file)
	if err := o.FinishAndSave(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRun holds run to main's exit contract: nil is exit 0, errNotIdentical
// exit 1, any other error exit 2.
func TestRun(t *testing.T) {
	dir := t.TempDir()
	a := saveTrace(t, dir, "a.pythia", "send", "recv")
	same := saveTrace(t, dir, "same.pythia", "send", "recv")
	other := saveTrace(t, dir, "other.pythia", "send", "wait", "recv")
	for _, tc := range []struct {
		name    string
		args    []string
		wantErr error  // nil: success; errNotIdentical: the traces differ
		wantMsg string // non-empty: an operational error containing this
	}{
		{name: "identical traces", args: []string{a, same}},
		{name: "differing traces", args: []string{a, other}, wantErr: errNotIdentical},
		{name: "one argument", args: []string{a}, wantMsg: "expected 2 trace files, got 1"},
		{name: "help", args: []string{"-h"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			err := run(tc.args, &out)
			switch {
			case tc.wantMsg != "":
				if err == nil || errors.Is(err, errNotIdentical) || !strings.Contains(err.Error(), tc.wantMsg) {
					t.Fatalf("run(%q) = %v, want an error containing %q", tc.args, err, tc.wantMsg)
				}
			case !errors.Is(err, tc.wantErr):
				t.Fatalf("run(%q) = %v, want %v", tc.args, err, tc.wantErr)
			}
		})
	}
}
