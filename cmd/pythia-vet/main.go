// Command pythia-vet runs Pythia's repo-specific static analyzers over the
// whole module and reports findings as "file:line: [analyzer] message".
//
// Usage:
//
//	go run ./cmd/pythia-vet ./...
//	go run ./cmd/pythia-vet -analyzers=atomic-mix,lock-order ./...
//	go run ./cmd/pythia-vet -list
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
//	goroutine-lifecycle  library goroutines must be joined, not only
//	                     quit-signalled
//	lock-order           no AB/BA lock acquisition cycles through the call graph
//
// lock-discipline, atomic-mix and lock-order read one set of lock regions,
// computed once per function body: a region ends at the first matching
// release at the same or a shallower block depth, so an early-return
// Unlock inside an if does not end it for the code that follows.
//
// A finding is accepted in one way only: a comment
//
//	// pythia:allow <analyzer> <reason>
//
// trailing the finding's line, or anywhere in the comment block that ends on
// the line above it. The allow moves with its code, and the reason sits next
// to what it excuses. An allow that names an unknown analyzer, gives no
// reason, or accepts no finding is itself reported, as
// "file:line: [allow] message"; with -analyzers, only the allows of the
// analyzers that ran are checked for a reason and a use.
//
// Exit contract (scripts and CI depend on it):
//
//	0  clean — every finding is accepted by an allow, and every allow is used
//	1  findings no allow accepts, or misused allows
//	2  the module could not be loaded, or the flags were invalid
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

	"repro/internal/vet"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pythia-vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list analyzers and exit")
	dir := fs.String("dir", ".", "directory inside the module to analyse")
	names := fs.String("analyzers", "", "comma-separated analyzer names to run (default: all)")
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
	diags, allowed := vet.RunAnalyzers(mod, analyzers)
	for _, d := range diags {
		fprintf(stdout, "%s\n", d.Format(mod.Root))
	}
	if len(diags) > 0 {
		fprintf(stderr, "pythia-vet: %d finding(s) (%d allowed)\n", len(diags), allowed)
		return 1
	}
	if allowed > 0 {
		fprintf(stderr, "pythia-vet: clean (%d allowed finding(s))\n", allowed)
	}
	return 0
}

// fprintf writes a CLI diagnostic. The streams are injected (so the tests
// can capture output), but they are the command's stdout/stderr: if writing
// a diagnostic fails there is nowhere left to report, so the print error is
// structurally dead — the same contract the fmt.Print family has.
func fprintf(w io.Writer, format string, args ...any) {
	// pythia:allow error-hygiene — the one place the CLI writes its
	// diagnostics; the injected streams take it outside the analyzer's
	// os.Stdout/os.Stderr allowlist, but a failed write to them has nowhere
	// left to go.
	fmt.Fprintf(w, format, args...)
}
