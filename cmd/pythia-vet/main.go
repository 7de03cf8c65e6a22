// Command pythia-vet runs Pythia's repo-specific static analyzers over the
// whole module and reports findings as "file:line: [analyzer] message".
//
// Usage:
//
//	go run ./cmd/pythia-vet ./...
//	go run ./cmd/pythia-vet -analyzers=atomic-mix,lock-order ./...
//	go run ./cmd/pythia-vet -update-baseline ./...
//
// Analyzers (see internal/vet):
//
//	hotpath-alloc        pythia:hotpath functions must stay allocation-lean
//	lock-discipline      Lock/Unlock pairing; no Thread.Submit under a lock
//	panic-policy         library panics must be documented invariant violations
//	error-hygiene        no discarded error returns outside tests and examples
//	containment          experimental packages must not leak into the core
//	untrusted-size       wire/file-decoded sizes must be bounded before use
//	atomic-mix           one synchronisation discipline per field
//	goroutine-lifecycle  library goroutines must be joined, signalled, or
//	                     annotated pythia:detached
//	lock-order           no AB/BA lock acquisition cycles through the call graph
//
// lock-discipline, atomic-mix and lock-order read one set of lock regions,
// computed once per function body: a region ends at the first matching
// release at the same or a shallower block depth, so an early-return
// Unlock inside an if does not end it for the code that follows.
//
// Exit contract (scripts and CI depend on it):
//
//	0  clean — no findings beyond the baseline, and no stale baseline entries
//	1  findings not in the baseline, or stale baseline entries (see -allow-stale)
//	2  the module could not be loaded, or the flags were invalid
//
// A stale baseline entry is one that no longer matches any finding: the bug
// it excused was fixed, so the entry is dead weight that could mask a future
// regression at the same site. Staleness fails the run unless -allow-stale
// is set (useful mid-refactor when line numbers are churning).
//
// The positional package patterns are accepted for familiarity but the tool
// always analyses every package of the enclosing module: the analyzers are
// whole-module properties, not per-package ones.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/vet"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pythia-vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	baselinePath := fs.String("baseline", "", "baseline file (default <module root>/vet-baseline.txt)")
	update := fs.Bool("update-baseline", false, "rewrite the baseline to accept all current findings")
	list := fs.Bool("list", false, "list analyzers and exit")
	dir := fs.String("dir", ".", "directory inside the module to analyse")
	names := fs.String("analyzers", "", "comma-separated analyzer names to run (default: all)")
	allowStale := fs.Bool("allow-stale", false, "do not fail on stale baseline entries")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0 // -h: the usage text is already printed
		}
		return 2
	}

	analyzers, err := vet.SelectAnalyzers(*names)
	if err != nil {
		fprintf(stderr, "pythia-vet: %v\n", err)
		return 2
	}
	if *list {
		for _, a := range analyzers {
			fprintf(stdout, "%-19s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	mod, err := vet.LoadModule(*dir)
	if err != nil {
		fprintf(stderr, "pythia-vet: %v\n", err)
		return 2
	}
	diags := vet.RunAnalyzers(mod, analyzers)

	bp := *baselinePath
	if bp == "" {
		bp = filepath.Join(mod.Root, "vet-baseline.txt")
	}

	if *update {
		if err := vet.WriteBaseline(bp, mod.Root, diags); err != nil {
			fprintf(stderr, "pythia-vet: %v\n", err)
			return 2
		}
		fprintf(stdout, "pythia-vet: wrote %d finding(s) to %s\n", len(diags), bp)
		return 0
	}

	base, err := vet.LoadBaseline(bp)
	if err != nil {
		fprintf(stderr, "pythia-vet: %v\n", err)
		return 2
	}
	fresh, suppressed, stale := base.Filter(mod.Root, diags)
	stale = staleForSelected(stale, analyzers)
	for _, d := range fresh {
		fprintf(stdout, "%s\n", d.Format(mod.Root))
	}
	for _, s := range stale {
		fprintf(stderr, "pythia-vet: stale baseline entry (fixed? remove it): %s\n", s)
	}
	fail := len(fresh) > 0
	if len(stale) > 0 && !*allowStale {
		fprintf(stderr, "pythia-vet: %d stale baseline entr(ies) — regenerate the baseline or pass -allow-stale\n", len(stale))
		fail = true
	}
	if fail {
		fprintf(stderr, "pythia-vet: %d finding(s) (%d baselined, %d stale)\n", len(fresh), suppressed, len(stale))
		return 1
	}
	if suppressed > 0 {
		fprintf(stderr, "pythia-vet: clean (%d baselined finding(s))\n", suppressed)
	}
	return 0
}

// fprintf writes a CLI diagnostic. The streams are injected (so the tests
// can capture output), but they are the command's stdout/stderr: if writing
// a diagnostic fails there is nowhere left to report, so the print error is
// structurally dead — the same contract the fmt.Print family has. The one
// resulting error-hygiene finding is justified in vet-baseline.txt.
func fprintf(w io.Writer, format string, args ...any) {
	fmt.Fprintf(w, format, args...)
}

// staleForSelected keeps only the stale entries produced by analyzers that
// actually ran: with -analyzers narrowing the set, entries belonging to the
// skipped analyzers cannot match anything and would be false staleness.
func staleForSelected(stale []string, analyzers []*vet.Analyzer) []string {
	var out []string
	for _, s := range stale {
		for _, a := range analyzers {
			if strings.Contains(s, "["+a.Name+"]") {
				out = append(out, s)
				break
			}
		}
	}
	return out
}
