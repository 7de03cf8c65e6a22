package vet

import (
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// loadFixture writes files (path -> source) into a temp mini-module, loads it
// with LoadModule, runs the named analyzers, and returns the formatted
// findings (root-relative, sorted).
func loadFixture(t *testing.T, files map[string]string, analyzers ...*Analyzer) []string {
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
	mod, err := LoadModule(root)
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	diags := RunAnalyzers(mod, analyzers)
	out := make([]string, 0, len(diags))
	for _, d := range diags {
		out = append(out, d.Format(root))
	}
	return out
}

// expectFindings asserts that each want substring matches exactly one
// finding, in order, and that no findings are left over.
func expectFindings(t *testing.T, got []string, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d finding(s), want %d:\n  got:  %s\n  want: %s",
			len(got), len(want), strings.Join(got, "\n        "), strings.Join(want, "\n        "))
	}
	for i, w := range want {
		if !strings.Contains(got[i], w) {
			t.Errorf("finding %d = %q, want substring %q", i, got[i], w)
		}
	}
}

func TestHotpathAlloc(t *testing.T) {
	tests := []struct {
		name string
		body string // body of the annotated function fast(s []int, n int)
		want []string
	}{
		{
			name: "fmt call",
			body: `fmt.Println(n)`,
			want: []string{"[hotpath-alloc] call to fmt.Println"},
		},
		{
			name: "string concat",
			body: `name := "a" + "b"; _ = name`,
			want: []string{"[hotpath-alloc] string concatenation"},
		},
		{
			name: "string concat assign",
			body: `name := "a"; name += "b"; _ = name`,
			want: []string{"[hotpath-alloc] string concatenation"},
		},
		{
			name: "append to param is fine",
			body: `s = append(s, n); _ = s`,
			want: nil,
		},
		{
			name: "append to fresh local flagged",
			body: `var out []int; out = append(out, n); _ = out`,
			want: []string{"[hotpath-alloc] append to out may grow"},
		},
		{
			name: "append to [:0] reslice is fine",
			body: `out := s[:0]; out = append(out, n); _ = out`,
			want: nil,
		},
		{
			name: "append to make with cap is fine",
			body: `out := make([]int, 0, 8); out = append(out, n); _ = out`,
			want: nil,
		},
		{
			name: "append guarded by len bound is fine",
			body: `var pool []int
	if len(pool) < 8 {
		pool = append(pool, n)
	}
	_ = pool`,
			want: nil,
		},
		{
			name: "map literal",
			body: `m := map[int]int{}; _ = m`,
			want: []string{"[hotpath-alloc] map literal"},
		},
		{
			name: "make map",
			body: `m := make(map[int]int); _ = m`,
			want: []string{"[hotpath-alloc] make(map)"},
		},
		{
			name: "closure capturing local",
			body: `x := n
	f := func() int { return x }
	_ = f`,
			want: []string{"[hotpath-alloc] closure captures x"},
		},
		{
			name: "closure without captures is fine",
			body: `f := func(y int) int { return y }
	_ = f(n)`,
			want: nil,
		},
		{
			name: "interface boxing",
			body: `sink(n)`,
			want: []string{"[hotpath-alloc] argument n boxes int into"},
		},
		{
			name: "interface arg already interface is fine",
			body: `var a any = nil; sink(a)`,
			want: nil,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			src := `package lib

import "fmt"

var _ = fmt.Sprint

func sink(v any) { _ = v }

// fast is on the per-event path.
//
// pythia:hotpath
func fast(s []int, n int) {
	` + tt.body + `
}

var _ = fast
`
			got := loadFixture(t, map[string]string{"lib/lib.go": src}, HotpathAlloc)
			expectFindings(t, got, tt.want)
		})
	}
}

func TestHotpathAllocOnlyAnnotated(t *testing.T) {
	src := `package lib

import "fmt"

// slow has no annotation; anything goes.
func slow() { fmt.Println("fine") }
`
	got := loadFixture(t, map[string]string{"lib/lib.go": src}, HotpathAlloc)
	expectFindings(t, got, nil)
}

func TestHotpathAllocPointerSliceParam(t *testing.T) {
	src := `package lib

// pythia:hotpath
func fill(out *[]int, n int) {
	*out = append(*out, n)
}
`
	got := loadFixture(t, map[string]string{"lib/lib.go": src}, HotpathAlloc)
	expectFindings(t, got, nil)
}

// lockFixture wraps a function body in a package that has a sync.Mutex, a
// sync.RWMutex, and a fake oracle Thread under internal/core (the analyzer
// recognises Thread by its package suffix).
func lockFixture(t *testing.T, body string) []string {
	t.Helper()
	core := `package core

type Thread struct{}

func (t *Thread) Submit(id int32)              {}
func (t *Thread) SubmitAt(id int32, now int64) {}
`
	lib := `package lib

import (
	"sync"

	"fixture/internal/core"
)

var (
	mu  sync.Mutex
	rw  sync.RWMutex
	thr = &core.Thread{}
)

func scope() {
	` + body + `
}
`
	return loadFixture(t, map[string]string{
		"internal/core/core.go": core,
		"lib/lib.go":            lib,
	}, LockDiscipline)
}

func TestLockDiscipline(t *testing.T) {
	tests := []struct {
		name string
		body string
		want []string
	}{
		{
			name: "lock with defer unlock is fine",
			body: `mu.Lock()
	defer mu.Unlock()`,
			want: nil,
		},
		{
			name: "lock with inline unlock is fine",
			body: `mu.Lock()
	mu.Unlock()`,
			want: nil,
		},
		{
			name: "lock without unlock",
			body: `mu.Lock()`,
			want: []string{"mu.Lock() without a matching same-function Unlock"},
		},
		{
			name: "rlock paired with wrong unlock",
			body: `rw.RLock()
	defer rw.Unlock()`,
			want: []string{"rw.RLock() without a matching same-function RUnlock"},
		},
		{
			name: "deferred lock",
			body: `defer mu.Lock()`,
			want: []string{"deferred mu.Lock() acquires a lock"},
		},
		{
			name: "submit under lock",
			body: `mu.Lock()
	thr.Submit(1)
	mu.Unlock()`,
			want: []string{"scope: Thread.Submit called while holding mu"},
		},
		{
			name: "submit under deferred unlock",
			body: `mu.Lock()
	defer mu.Unlock()
	thr.SubmitAt(1, 2)`,
			want: []string{"scope: Thread.SubmitAt called while holding mu"},
		},
		{
			name: "submit after release is fine",
			body: `mu.Lock()
	mu.Unlock()
	thr.Submit(1)`,
			want: nil,
		},
		{
			name: "submit after an early-return unlock",
			body: `mu.Lock()
	if thr == nil {
		mu.Unlock()
		return
	}
	thr.Submit(1)
	mu.Unlock()`,
			want: []string{"scope: Thread.Submit called while holding mu"},
		},
		{
			name: "submit after the fall-through unlock is fine",
			body: `mu.Lock()
	if thr == nil {
		mu.Unlock()
		return
	}
	mu.Unlock()
	thr.Submit(1)`,
			want: nil,
		},
		{
			name: "closure is its own scope",
			body: `mu.Lock()
	defer mu.Unlock()
	f := func() {
		rw.RLock()
		defer rw.RUnlock()
	}
	f()`,
			want: nil,
		},
		{
			name: "unlock missing inside closure",
			body: `f := func() {
		mu.Lock()
	}
	f()`,
			want: []string{"mu.Lock() without a matching same-function Unlock"},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			expectFindings(t, lockFixture(t, tt.body), tt.want)
		})
	}
}

func TestPanicPolicy(t *testing.T) {
	tests := []struct {
		name string
		path string // file path inside the fixture module
		body string
		want []string
	}{
		{
			name: "invariant panic is fine",
			path: "internal/lib/lib.go",
			body: `panic("pythia: internal: impossible state")`,
			want: nil,
		},
		{
			name: "formatted invariant panic is fine",
			path: "internal/lib/lib.go",
			body: `panic(fmt.Sprintf("pythia: internal: bad sym %d", 7))`,
			want: nil,
		},
		{
			name: "plain panic in library",
			path: "internal/lib/lib.go",
			body: `panic("boom")`,
			want: []string{`[panic-policy] panic "boom"`},
		},
		{
			name: "non-constant panic in library",
			path: "internal/lib/lib.go",
			body: `panic(errTest)`,
			want: []string{"[panic-policy] panic with non-constant"},
		},
		{
			name: "panic in cmd is fine",
			path: "cmd/tool/main.go",
			body: `panic("cli misuse")`,
			want: nil,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			pkg := "lib"
			if strings.Contains(tt.path, "cmd/") {
				pkg = "main"
			}
			src := `package ` + pkg + `

import (
	"errors"
	"fmt"
)

var errTest = errors.New("x")
var _ = fmt.Sprint

func trip() {
	` + tt.body + `
}

var _ = trip
`
			got := loadFixture(t, map[string]string{tt.path: src}, PanicPolicy)
			expectFindings(t, got, tt.want)
		})
	}
}

func TestErrorHygiene(t *testing.T) {
	tests := []struct {
		name string
		body string
		want []string
	}{
		{
			name: "checked error is fine",
			body: `if err := mayFail(); err != nil {
		return
	}`,
			want: nil,
		},
		{
			name: "bare call dropping error",
			body: `mayFail()`,
			want: []string{"result of mayFail contains an error"},
		},
		{
			name: "blank assign",
			body: `_ = mayFail()`,
			want: []string{"error value mayFail() assigned to _"},
		},
		{
			name: "blank in tuple",
			body: `n, _ := twoValued()
	_ = n`,
			want: []string{"error result of twoValued() assigned to _"},
		},
		{
			name: "fmt.Println allowlisted",
			body: `fmt.Println("hi")`,
			want: nil,
		},
		{
			name: "fprintf to stderr allowlisted",
			body: `fmt.Fprintf(os.Stderr, "hi %d\n", 1)`,
			want: nil,
		},
		{
			name: "fprintf to strings.Builder allowlisted",
			body: `var sb strings.Builder
	fmt.Fprintf(&sb, "x")
	_ = sb.String()`,
			want: nil,
		},
		{
			name: "fprintf to arbitrary writer flagged",
			body: `fmt.Fprintf(sink, "x")`,
			want: []string{"result of fmt.Fprintf contains an error"},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			src := `package lib

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

var sink io.Writer

var _ = strings.TrimSpace
var _ = fmt.Sprint

func mayFail() error { return errors.New("x") }

func twoValued() (int, error) { return 0, nil }

func useIt() {
	` + tt.body + `
}

var _ = useIt
var _ = os.Stdout
`
			got := loadFixture(t, map[string]string{"lib/lib.go": src}, ErrorHygiene)
			expectFindings(t, got, tt.want)
		})
	}
}

func TestErrorHygieneSkipsTestsAndExamples(t *testing.T) {
	lib := `package lib

import "errors"

func mayFail() error { return errors.New("x") }

var _ = mayFail
`
	libTest := `package lib

import "testing"

func TestDrop(t *testing.T) { mayFail() }
`
	example := `package main

import "fixture/lib"

func main() { _ = lib.MayFail() }
`
	libExported := `package lib

import "errors"

func MayFail() error { return errors.New("x") }
`
	got := loadFixture(t, map[string]string{
		"lib/lib.go":            lib,
		"lib/lib_test.go":       libTest,
		"lib/exported.go":       libExported,
		"examples/demo/main.go": example,
	}, ErrorHygiene)
	expectFindings(t, got, nil)
}

func TestBaselineFilter(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "baseline.txt")
	content := "# header comment\nfile.go:1: [a] msg\nfile.go:1: [a] msg\nfile.go:9: [b] gone\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := LoadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	diag := func(line int, analyzer, msg string) Diagnostic {
		return Diagnostic{
			Pos:      token.Position{Filename: "file.go", Line: line},
			Analyzer: analyzer,
			Message:  msg,
		}
	}
	diags := []Diagnostic{
		diag(1, "a", "msg"), diag(1, "a", "msg"), // both within the budget of 2
		diag(1, "a", "msg"), // exceeds the budget
		diag(2, "a", "new"), // not baselined at all
	}
	fresh, suppressed, stale := b.Filter(dir, diags)
	if suppressed != 2 {
		t.Errorf("suppressed = %d, want 2", suppressed)
	}
	if len(fresh) != 2 {
		t.Fatalf("fresh = %d finding(s), want 2", len(fresh))
	}
	if got := fresh[1].Format(dir); got != "file.go:2: [a] new" {
		t.Errorf("fresh[1] = %q", got)
	}
	if len(stale) != 1 || stale[0] != "file.go:9: [b] gone" {
		t.Errorf("stale = %q, want the unmatched entry", stale)
	}
}

func TestLoadBaselineMissingFile(t *testing.T) {
	b, err := LoadBaseline(filepath.Join(t.TempDir(), "absent.txt"))
	if err != nil {
		t.Fatalf("missing baseline should load as empty, got error %v", err)
	}
	d := Diagnostic{Pos: token.Position{Filename: "f.go", Line: 1}, Analyzer: "a", Message: "m"}
	fresh, suppressed, stale := b.Filter(t.TempDir(), []Diagnostic{d})
	if len(fresh) != 1 || suppressed != 0 || len(stale) != 0 {
		t.Fatalf("empty baseline Filter = (%d fresh, %d suppressed, %d stale)", len(fresh), suppressed, len(stale))
	}
}

func TestWriteBaselinePreservesHeader(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "baseline.txt")
	header := "# justification: deliberate finding\n# second line\n"
	if err := os.WriteFile(path, []byte(header+"old.go:1: [a] gone\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	d := Diagnostic{Pos: token.Position{Filename: "new.go", Line: 3}, Analyzer: "b", Message: "kept"}
	if err := WriteBaseline(path, dir, []Diagnostic{d}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := header + "new.go:3: [b] kept\n"
	if string(got) != want {
		t.Errorf("rewritten baseline:\n%s\nwant:\n%s", got, want)
	}
}

func TestLoadModuleSelf(t *testing.T) {
	// Loading the real module exercises the importer against every package
	// pythia-vet analyses in CI.
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	mod, err := LoadModule(root)
	if err != nil {
		t.Fatalf("LoadModule(repo root): %v", err)
	}
	if mod.ModPath != "repro" {
		t.Fatalf("ModPath = %q, want repro", mod.ModPath)
	}
	if len(mod.Packages) < 10 {
		t.Fatalf("loaded only %d packages", len(mod.Packages))
	}
	// bench/ is a module of its own (go.mod, "repro/bench"): like the go
	// tool's ./..., the scan must leave it out.
	for _, pkg := range mod.Packages {
		if pkg.Path == "repro/bench" {
			t.Fatalf("nested module %s loaded as a package of %s", pkg.Dir, mod.ModPath)
		}
	}
}
