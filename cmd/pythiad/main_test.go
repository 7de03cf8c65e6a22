package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunValidation drives run's argument checks, each of which must fail
// before a listener opens or the daemon starts: an incomplete cluster
// configuration, and a trace directory that is missing or is a file. -h
// returns nil just as early.
func TestRunValidation(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "bt.pythia")
	if err := os.WriteFile(file, nil, 0o600); err != nil {
		t.Fatal(err)
	}
	// A listen address that fails to bind if run ever got that far.
	listen := []string{"-listen", "unix://" + filepath.Join(dir, "no-such-dir", "d.sock")}
	for _, tc := range []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"peers without self", []string{"-cluster-peers", "127.0.0.1:1,127.0.0.1:2", "-traces", dir},
			"-cluster-peers requires -cluster-self"},
		{"epoch 0", []string{"-cluster-peers", "127.0.0.1:1", "-cluster-self", "127.0.0.1:1", "-cluster-epoch", "0", "-traces", dir},
			"-cluster-epoch must be at least 1"},
		{"missing trace directory", []string{"-traces", filepath.Join(dir, "absent")},
			"trace directory"},
		{"trace path is a file", []string{"-traces", file},
			"is not a directory"},
		{"help", []string{"-h"}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			args := append(append([]string(nil), listen...), tc.args...)
			err := run(args, &out)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("run(%q) = %v, want nil", args, err)
				}
			} else if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("run(%q) = %v, want an error containing %q", args, err, tc.wantErr)
			}
			if out.Len() != 0 {
				t.Fatalf("run(%q) printed %q before failing validation", args, out.String())
			}
		})
	}
}
