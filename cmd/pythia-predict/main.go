// Command pythia-predict replays one of the evaluation applications against
// a previously recorded trace file and reports prediction accuracy:
//
//	pythia-record  -app LU -class small -o lu.pythia
//	pythia-predict -app LU -class large -trace lu.pythia -distances 1,8,64
//
// This is the paper's Fig. 8 protocol for a single (application, working
// set) pair: at every blocking MPI call the oracle predicts the event x
// events ahead, and the prediction is scored against what the application
// actually did.
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
		samples   = fs.Int("samples", 200, "max query points per rank")
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
	maxDist := 0
	for _, d := range distances {
		if d > maxDist {
			maxDist = d
		}
	}

	streams := harness.CaptureStreams(app, class, *seed)
	hits := make(map[int]int)
	total := make(map[int]int)
	var tracked, observed int64
	for tid, stream := range streams {
		oracle, err := pythia.NewPredictOracle(ref, pythia.Config{})
		if err != nil {
			return fmt.Errorf("building oracle for rank %d: %w", tid, err)
		}
		th := oracle.Thread(tid)
		if th.Predictor() == nil {
			continue
		}
		th.StartAtBeginning()
		var points []int
		for i, name := range stream {
			if harness.IsBlockingEvent(name) && i+maxDist < len(stream) {
				points = append(points, i)
			}
		}
		stride := 1
		if len(points) > *samples {
			stride = len(points) / *samples
		}
		sample := make(map[int]bool)
		for i := 0; i < len(points); i += stride {
			sample[points[i]] = true
		}
		for i, name := range stream {
			th.Submit(oracle.Intern(name))
			if !sample[i] {
				continue
			}
			preds := th.PredictSequence(maxDist)
			for _, d := range distances {
				total[d]++
				if d-1 < len(preds) &&
					oracle.EventName(pythia.ID(preds[d-1].EventID)) == stream[i+d] {
					hits[d]++
				}
			}
		}
		// Quarantine (divergence watchdog) is a legitimate fail-open
		// outcome on a divergent replay; only Degraded — a contained
		// panic or breached budget — is a failure worth an exit.
		if h := oracle.Health(); h.State == pythia.Degraded {
			return fmt.Errorf("oracle degraded replaying rank %d: %s", tid, h.Cause)
		}
		st := th.Predictor().Stats()
		tracked += st.Followed
		observed += st.Observed
	}

	p := &printer{w: stdout}
	p.printf("%s.%s replayed against %s\n", app.Name, class, *trace)
	p.printf("tracking: followed %d of %d events (%.1f%%)\n",
		tracked, observed, 100*float64(tracked)/float64(observed))
	for _, d := range distances {
		acc := 0.0
		if total[d] > 0 {
			acc = float64(hits[d]) / float64(total[d])
		}
		p.printf("distance %3d: accuracy %5.1f%%  (%d samples)\n", d, acc*100, total[d])
	}
	return p.err
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad distance %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}
