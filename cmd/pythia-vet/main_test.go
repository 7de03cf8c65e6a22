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

// allowedSrc returns buggySrc with comment on the line above its finding,
// after extra lines inserted above Decode's doc comment.
func allowedSrc(comment, extra string) string {
	src := strings.Replace(buggySrc, "\treturn make", "\t"+comment+"\n\treturn make", 1)
	return strings.Replace(src, "// Decode allocates", extra+"// Decode allocates", 1)
}

// unusedAllowSrc is cleanSrc with an allow that accepts nothing.
var unusedAllowSrc = strings.Replace(cleanSrc, "func Add",
	"// pythia:allow untrusted-size — nothing here to excuse\nfunc Add", 1)

// TestRunExitContract pins the documented exit codes and flag behaviour:
// 0 clean, 1 findings or misused allows, 2 load/flag errors.
func TestRunExitContract(t *testing.T) {
	tests := []struct {
		name       string
		files      map[string]string
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
			name:       "allowed finding exits 0",
			files:      map[string]string{"a.go": allowedSrc("// pythia:allow untrusted-size — the header is trusted", "")},
			wantCode:   0,
			wantStderr: []string{"clean (1 allowed finding(s))"},
		},
		{
			// Lines added above an accepted finding shift it; the allow
			// moves with its code.
			name: "lines inserted above an allowed finding still exit 0",
			files: map[string]string{"a.go": allowedSrc("// pythia:allow untrusted-size — the header is trusted",
				"// Two lines added\n// above the doc comment.\n//\n")},
			wantCode:   0,
			wantStderr: []string{"clean (1 allowed finding(s))"},
		},
		{
			name:       "unused allow exits 1",
			files:      map[string]string{"a.go": unusedAllowSrc},
			wantCode:   1,
			wantStdout: []string{"a.go:4: [allow] pythia:allow untrusted-size accepts no finding on line 5"},
			wantStderr: []string{"1 finding(s) (0 allowed)"},
		},
		{
			name:       "allow naming an unknown analyzer exits 1",
			files:      map[string]string{"a.go": allowedSrc("// pythia:allow untrusted-sise — misspelt", "")},
			wantCode:   1,
			wantStdout: []string{`a.go:8: [allow] pythia:allow names unknown analyzer "untrusted-sise"`, "a.go:9: [untrusted-size]"},
		},
		{
			name:       "allow without a reason exits 1",
			files:      map[string]string{"a.go": allowedSrc("// pythia:allow untrusted-size", "")},
			wantCode:   1,
			wantStdout: []string{"a.go:8: [allow] pythia:allow untrusted-size gives no reason", "a.go:9: [untrusted-size]"},
		},
		{
			name:      "stale entry for a skipped analyzer does not fail a filtered run",
			files:     map[string]string{"a.go": unusedAllowSrc},
			extraArgs: []string{"-analyzers=atomic-mix"},
			wantCode:  0,
		},
		{
			name:       "-h prints the usage and exits 0",
			files:      map[string]string{"a.go": cleanSrc},
			extraArgs:  []string{"-h"},
			wantCode:   0,
			wantStderr: []string{"-analyzers", "-dir", "-list"},
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
