package main

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"repro/internal/cluster"
)

// TestRun holds the planner to the fleet's own shard map: for tenants given
// as arguments or on stdin, each line names the tenant, cluster.Map's owner
// and then its warm replicas. Invalid maps fail, and -h succeeds, before
// any output.
func TestRun(t *testing.T) {
	daemons := []string{"127.0.0.1:9137", "127.0.0.1:9138", "unix:///run/pythiad.sock"}
	tenants := []string{"EP", "CG", "BT", "LU", "MG"}
	m := cluster.Map{Epoch: 2, Replicas: 1, Daemons: daemons}
	flags := []string{"-daemons", strings.Join(daemons, ","), "-epoch", "2", "-replicas", "1"}
	for _, tc := range []struct {
		name  string
		args  []string
		stdin string
	}{
		{"args", append(slices.Clone(flags), tenants...), ""},
		{"stdin", flags, "EP\n  CG \n\nBT\nLU\nMG\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(tc.args, strings.NewReader(tc.stdin), &out); err != nil {
				t.Fatalf("run(%q): %v", tc.args, err)
			}
			lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
			if len(lines) != len(tenants) {
				t.Fatalf("%d lines for %d tenants:\n%s", len(lines), len(tenants), out.String())
			}
			for i, line := range lines {
				f := strings.Split(line, "\t")
				tenant := tenants[i]
				if f[0] != tenant || f[1] != m.Owner(tenant) || !slices.Equal(f[2:], m.Assignment(tenant)[1:]) {
					t.Errorf("line %q, want %s owned by %s with replicas %q",
						line, tenant, m.Owner(tenant), m.Assignment(tenant)[1:])
				}
			}
		})
	}

	for _, tc := range []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"no daemons", []string{"-daemons", "", "EP"}, "-daemons is required"},
		{"epoch 0", []string{"-daemons", "a:1", "-epoch", "0", "EP"}, "-epoch must be at least 1"},
		{"negative replicas", []string{"-daemons", "a:1", "-replicas", "-1", "EP"}, "-replicas must be >= 0"},
		{"no tenants", []string{"-daemons", "a:1"}, "no tenants given"},
		{"help", []string{"-h"}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			err := run(tc.args, strings.NewReader(""), &out)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("run(%q) = %v, want nil", tc.args, err)
				}
			} else if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("run(%q) = %v, want an error containing %q", tc.args, err, tc.wantErr)
			}
			if out.Len() != 0 {
				t.Fatalf("run(%q) wrote %q before failing", tc.args, out.String())
			}
		})
	}
}
