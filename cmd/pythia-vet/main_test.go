package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule lays out a throwaway module for run() to analyse.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	files["go.mod"] = "module fixture\n\ngo 1.22\n"
	for rel, src := range files {
		path := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

const cleanSrc = `package fixture

// Add sums two ints.
func Add(a, b int) int { return a + b }
`

// buggySrc trips untrusted-size: a wire-decoded count sizes an allocation.
const buggySrc = `package fixture

import "encoding/binary"

// Decode allocates from an unchecked wire count.
func Decode(hdr []byte) []uint64 {
	n := binary.BigEndian.Uint32(hdr)
	return make([]uint64, n)
}
`

// TestRunExitContract pins the documented exit codes and flag behaviour:
// 0 clean, 1 findings or stale baseline, 2 load/flag errors.
func TestRunExitContract(t *testing.T) {
	tests := []struct {
		name       string
		files      map[string]string
		baseline   string // written as vet-baseline.txt when non-empty
		extraArgs  []string
		wantCode   int
		wantStdout []string // substrings
		wantStderr []string // substrings
	}{
		{
			name:     "clean module exits 0",
			files:    map[string]string{"a.go": cleanSrc},
			wantCode: 0,
		},
		{
			name:       "findings exit 1",
			files:      map[string]string{"a.go": buggySrc},
			wantCode:   1,
			wantStdout: []string{"[untrusted-size]"},
			wantStderr: []string{"1 finding(s)"},
		},
		{
			name:      "analyzers filter skips the finding",
			files:     map[string]string{"a.go": buggySrc},
			extraArgs: []string{"-analyzers=panic-policy,error-hygiene"},
			wantCode:  0,
		},
		{
			name:      "analyzers filter still catches it when selected",
			files:     map[string]string{"a.go": buggySrc},
			extraArgs: []string{"-analyzers=untrusted-size"},
			wantCode:  1,
		},
		{
			name:       "unknown analyzer name exits 2",
			files:      map[string]string{"a.go": cleanSrc},
			extraArgs:  []string{"-analyzers=no-such-analyzer"},
			wantCode:   2,
			wantStderr: []string{"no-such-analyzer"},
		},
		{
			name:       "unparseable module exits 2",
			files:      map[string]string{"a.go": "package fixture\nfunc broken( {\n"},
			wantCode:   2,
			wantStderr: []string{"pythia-vet:"},
		},
		{
			name:     "baselined finding exits 0",
			files:    map[string]string{"a.go": buggySrc},
			baseline: "a.go:8: [untrusted-size] size n from untrusted source binary.Uint32 reaches make without a dominating bound check (clamp or validate it first)\n",
			wantCode: 0,
		},
		{
			name:       "stale baseline entry exits 1",
			files:      map[string]string{"a.go": cleanSrc},
			baseline:   "a.go:8: [untrusted-size] size n from untrusted source binary.Uint32 reaches make without a dominating bound check (clamp or validate it first)\n",
			wantCode:   1,
			wantStderr: []string{"stale baseline entry", "regenerate the baseline or pass -allow-stale"},
		},
		{
			name:       "allow-stale downgrades staleness to a warning",
			files:      map[string]string{"a.go": cleanSrc},
			baseline:   "a.go:8: [untrusted-size] size n from untrusted source binary.Uint32 reaches make without a dominating bound check (clamp or validate it first)\n",
			extraArgs:  []string{"-allow-stale"},
			wantCode:   0,
			wantStderr: []string{"stale baseline entry"},
		},
		{
			name:      "stale entry for a skipped analyzer does not fail a filtered run",
			files:     map[string]string{"a.go": cleanSrc},
			baseline:  "a.go:8: [untrusted-size] size n from untrusted source binary.Uint32 reaches make without a dominating bound check (clamp or validate it first)\n",
			extraArgs: []string{"-analyzers=atomic-mix"},
			wantCode:  0,
		},
		{
			name:       "-h prints the usage and exits 0",
			files:      map[string]string{"a.go": cleanSrc},
			extraArgs:  []string{"-h"},
			wantCode:   0,
			wantStderr: []string{"-update-baseline"},
		},
		{
			name:       "list prints the registry",
			files:      map[string]string{"a.go": cleanSrc},
			extraArgs:  []string{"-list"},
			wantCode:   0,
			wantStdout: []string{"untrusted-size", "atomic-mix", "goroutine-lifecycle", "lock-order", "hotpath-alloc"},
		},
		{
			name:       "list respects the analyzers filter",
			files:      map[string]string{"a.go": cleanSrc},
			extraArgs:  []string{"-list", "-analyzers=lock-order"},
			wantCode:   0,
			wantStdout: []string{"lock-order"},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			root := writeModule(t, tt.files)
			bp := filepath.Join(root, "vet-baseline.txt")
			if tt.baseline != "" {
				if err := os.WriteFile(bp, []byte(tt.baseline), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			args := append([]string{"-dir", root}, tt.extraArgs...)
			var stdout, stderr strings.Builder
			code := run(args, &stdout, &stderr)
			if code != tt.wantCode {
				t.Errorf("exit code = %d, want %d\nstdout:\n%s\nstderr:\n%s",
					code, tt.wantCode, stdout.String(), stderr.String())
			}
			for _, want := range tt.wantStdout {
				if !strings.Contains(stdout.String(), want) {
					t.Errorf("stdout missing %q:\n%s", want, stdout.String())
				}
			}
			for _, want := range tt.wantStderr {
				if !strings.Contains(stderr.String(), want) {
					t.Errorf("stderr missing %q:\n%s", want, stderr.String())
				}
			}
		})
	}
}

// TestRunUpdateBaseline round-trips -update-baseline: the rewritten file
// must make the same module pass with no staleness.
func TestRunUpdateBaseline(t *testing.T) {
	root := writeModule(t, map[string]string{"a.go": buggySrc})
	var stdout, stderr strings.Builder
	if code := run([]string{"-dir", root, "-update-baseline"}, &stdout, &stderr); code != 0 {
		t.Fatalf("update exit = %d, stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "wrote 1 finding(s)") {
		t.Errorf("update stdout: %s", stdout.String())
	}
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-dir", root}, &stdout, &stderr); code != 0 {
		t.Errorf("post-update exit = %d, want 0\nstdout:\n%s\nstderr:\n%s",
			code, stdout.String(), stderr.String())
	}
}
