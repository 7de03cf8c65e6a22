// Command pythia-record runs one of the evaluation applications under
// PYTHIA-RECORD and writes the resulting trace file:
//
//	pythia-record -app BT -class small -o bt.pythia
//
// Long runs can be made crash-safe with a checkpoint journal; a run that
// died (crash, OOM kill, walltime limit) is then salvaged with -resume:
//
//	pythia-record -app BT -class large -checkpoint bt.ckpt -o bt.pythia
//	pythia-record -resume -checkpoint bt.ckpt -o bt.pythia
//
// The trace can then be inspected with pythia-inspect or used for
// predictions with pythia-predict.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/apps"
	"repro/internal/harness"
	"repro/pythia"
)

// newRecordOracle is swapped by tests to inject failing oracles.
var newRecordOracle = pythia.NewRecordOracle

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

func (p *printer) println(args ...any) {
	if p.err == nil {
		_, p.err = fmt.Fprintln(p.w, args...)
	}
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pythia-record:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("pythia-record", flag.ContinueOnError)
	var (
		appName   = fs.String("app", "BT", "application (BT CG EP FT IS LU MG SP AMG Lulesh Kripke miniFE Quicksilver)")
		classFlag = fs.String("class", "small", "working set (small|medium|large)")
		out       = fs.String("o", "", "output trace file (default <app>.<class>.pythia)")
		seed      = fs.Int64("seed", 42, "seed for data-dependent applications")

		ckptDir      = fs.String("checkpoint", "", "journal directory for crash-safe checkpoints (off when empty)")
		ckptEvery    = fs.Int64("checkpoint-every", 0, "per-thread checkpoint cadence in events (0 = default)")
		ckptInterval = fs.Duration("checkpoint-interval", 0, "wall-clock checkpoint cadence (0 = event-driven only)")
		ckptKeep     = fs.Int("checkpoint-keep", 0, "checkpoint generations to retain (0 = default)")
		resume       = fs.Bool("resume", false, "salvage the freshest checkpoint from -checkpoint into -o instead of running")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h: the usage text is already printed
		}
		return err
	}

	if *resume {
		if *ckptDir == "" {
			return fmt.Errorf("-resume requires -checkpoint <dir>")
		}
		path := *out
		if path == "" {
			path = "recovered.pythia"
		}
		return salvage(stdout, *ckptDir, path)
	}

	app, err := apps.ByName(*appName)
	if err != nil {
		return err
	}
	class, err := apps.ParseClass(*classFlag)
	if err != nil {
		return err
	}
	path := *out
	if path == "" {
		path = fmt.Sprintf("%s.%s.pythia", app.Name, class)
	}

	opts := []pythia.RecordOption{pythia.WithoutTimestamps()}
	if *ckptDir != "" {
		opts = append(opts, pythia.WithCheckpoint(pythia.CheckpointConfig{
			Dir:         *ckptDir,
			EveryEvents: *ckptEvery,
			Interval:    *ckptInterval,
			Keep:        *ckptKeep,
		}))
	}
	oracle := newRecordOracle(opts...)

	run, err := harness.RunMPIAppWithOracle(oracle, app, class, *seed)
	if err != nil {
		return fmt.Errorf("recording %s.%s failed: %w", app.Name, class, err)
	}
	if err := pythia.SaveTraceSet(path, run.Trace); err != nil {
		return fmt.Errorf("saving trace: %w", err)
	}
	p := &printer{w: stdout}
	if h := oracle.Health(); h.State != pythia.Healthy {
		p.printf("warning: oracle finished %s: %s\n", h.State, h.Cause)
	}
	p.printf("%s.%s: %d ranks, %d events, %d rules, wall %v -> %s\n",
		app.Name, class, len(run.Trace.Threads), run.Trace.TotalEvents(),
		run.Trace.TotalRules(), run.Wall.Round(time.Millisecond), path)
	return p.err
}

// salvage recovers the freshest loadable checkpoint generation into a
// normal trace file and reports what was used and what was skipped.
func salvage(stdout io.Writer, dir, path string) error {
	p := &printer{w: stdout}
	ts, rep, err := pythia.Recover(dir)
	for _, sk := range rep.Skipped {
		p.printf("skipped generation %d: %s\n", sk.Generation, sk.Err)
	}
	if err != nil {
		return fmt.Errorf("recovering from %s: %w", dir, err)
	}
	if err := pythia.SaveTraceSet(path, ts); err != nil {
		return fmt.Errorf("saving recovered trace: %w", err)
	}
	var dropped int64
	for _, th := range ts.Threads {
		dropped += th.Dropped
	}
	p.printf("recovered generation %d: %d threads, %d events (+%d dropped) -> %s\n",
		rep.Used.Generation, len(ts.Threads), ts.TotalEvents(), dropped, path)
	p.println("note: a salvaged trace is a truncated prefix of the crashed run")
	return p.err
}
