// Command pythia-diff compares two Pythia trace files and reports whether
// the executions behaved identically and, if not, where they diverge:
//
//	pythia-record -app LU -class small -seed 42 -o a.pythia
//	pythia-record -app LU -class small -seed 43 -o b.pythia
//	pythia-diff a.pythia b.pythia
//
// The exit status is 0 for identical traces, 1 for traces that differ, and
// 2 for usage or load errors, so the tool composes with scripts (e.g.
// checking that an optimisation did not change the communication pattern).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/tracediff"
	"repro/pythia"
)

// errNotIdentical distinguishes "the traces differ" (exit 1, report already
// printed) from operational failures (exit 2, cause printed to stderr).
var errNotIdentical = errors.New("traces differ")

func main() {
	switch err := run(os.Args[1:], os.Stdout); {
	case err == nil:
	case errors.Is(err, errNotIdentical):
		os.Exit(1)
	default:
		fmt.Fprintln(os.Stderr, "pythia-diff:", err)
		os.Exit(2)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("pythia-diff", flag.ContinueOnError)
	fs.Usage = func() {
		if _, err := fmt.Fprintln(fs.Output(), "usage: pythia-diff <a.pythia> <b.pythia>"); err != nil {
			return
		}
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h: the usage text is already printed
		}
		return err
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return fmt.Errorf("expected 2 trace files, got %d", fs.NArg())
	}
	a, err := pythia.LoadTraceSet(fs.Arg(0))
	if err != nil {
		return fmt.Errorf("loading %s: %w", fs.Arg(0), err)
	}
	b, err := pythia.LoadTraceSet(fs.Arg(1))
	if err != nil {
		return fmt.Errorf("loading %s: %w", fs.Arg(1), err)
	}
	d := tracediff.Compare(a, b)
	if err := d.Write(stdout); err != nil {
		return fmt.Errorf("writing report: %w", err)
	}
	if !d.Identical() {
		return errNotIdentical
	}
	return nil
}
