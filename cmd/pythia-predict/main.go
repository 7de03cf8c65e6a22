// Command pythia-predict replays one of the evaluation applications against
// a previously recorded trace file and reports prediction accuracy:
//
//	pythia-record  -app LU -class small -o lu.pythia
//	pythia-predict -app LU -class large -trace lu.pythia -distances 1,8,64
//
// This is the paper's Fig. 8 protocol for a single (application, working
// set) pair, scored by the same harness code as Fig. 8: at every blocking
// MPI call that still has a future, the oracle predicts the event x events
// ahead, and the prediction is scored against what the application actually
// did. A trace recorded on small with the default seeds reproduces Fig. 8's
// row for the pair.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/apps"
	"repro/internal/harness"
	"repro/pythia"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pythia-predict:", err)
		os.Exit(1)
	}
}

// printer accumulates the first write error so the reporting code can print
// unconditionally and surface I/O failures once, through run's return.
type printer struct {
	w   io.Writer
	err error
}

func (p *printer) printf(format string, args ...any) {
	if p.err == nil {
		_, p.err = fmt.Fprintf(p.w, format, args...)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("pythia-predict", flag.ContinueOnError)
	var (
		appName   = fs.String("app", "BT", "application name")
		classFlag = fs.String("class", "large", "working set to replay (small|medium|large)")
		trace     = fs.String("trace", "", "trace file recorded with pythia-record (required)")
		distList  = fs.String("distances", "1,2,4,8,16,32,64,128", "prediction distances")
		seed      = fs.Int64("seed", 43, "seed for the replayed execution")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h: the usage text is already printed
		}
		return err
	}
	if *trace == "" {
		return fmt.Errorf("-trace is required")
	}

	app, err := apps.ByName(*appName)
	if err != nil {
		return err
	}
	class, err := apps.ParseClass(*classFlag)
	if err != nil {
		return err
	}
	distances, err := parseInts(*distList)
	if err != nil {
		return err
	}
	ref, err := pythia.LoadTraceSet(*trace)
	if err != nil {
		return fmt.Errorf("loading trace: %w", err)
	}
	acc, err := harness.ScoreReplay(ref, harness.CaptureStreams(app, class, *seed), distances)
	if err != nil {
		return err
	}

	p := &printer{w: stdout}
	p.printf("%s.%s replayed against %s\n", app.Name, class, *trace)
	p.printf("tracking: followed %d of %d events (%.1f%%)\n",
		acc.Followed, acc.Observed, 100*float64(acc.Followed)/float64(acc.Observed))
	for _, d := range distances {
		p.printf("distance %3d: accuracy %5.1f%%  (%d samples)\n", d, acc.Rate(d)*100, acc.Samples[d])
	}
	return p.err
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad distance %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}
