package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun drives run() the way main does: bad flag values fail before any
// experiment work, and the cheap experiments write their tables.
func TestRun(t *testing.T) {
	for _, tc := range []struct {
		name    string
		args    []string
		wantErr string   // substring of the error; "" means success
		want    []string // substrings of the output on success
	}{
		{name: "help", args: []string{"-h"}},
		{name: "unknown experiment", args: []string{"-experiment", "fig99"},
			wantErr: `unknown experiment "fig99"`},
		{name: "bad class", args: []string{"-experiment", "table1", "-class", "huge"},
			wantErr: `unknown class "huge"`},
		{name: "unknown app", args: []string{"-experiment", "fig8", "-apps", "NOPE"},
			wantErr: `unknown application "NOPE"`},
		{name: "fig14", args: []string{"-experiment", "fig14", "-seeds", "1"},
			want: []string{"Fig 14: Execution time of Lulesh", "error rate", "0.00", "1.00"}},
		{name: "fig7", args: []string{"-experiment", "fig7"},
			want: []string{"Fig 7: grammar extracted from BT.large", "R0 -> "}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			err := run(tc.args, &out)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("run(%q) = %v, want an error containing %q", tc.args, err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("run(%q): %v", tc.args, err)
			}
			for _, w := range tc.want {
				if !strings.Contains(out.String(), w) {
					t.Errorf("output missing %q:\n%s", w, out.String())
				}
			}
		})
	}
}
