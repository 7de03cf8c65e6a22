package harness

import (
	"fmt"
	"io"
	"time"

	"repro/internal/apps"
)

// Table1Row is one application's line of the paper's Table I.
type Table1Row struct {
	App      string
	Vanilla  Summary
	Record   Summary
	Overhead float64 // percent
	Events   int64   // total events recorded across ranks
	Rules    float64 // average grammar rules per rank
}

// Table1Config tunes the overhead experiment.
type Table1Config struct {
	// Class is the working set (the paper uses large).
	Class apps.Class
	// Repetitions per configuration (the paper uses 10).
	Repetitions int
	// Apps restricts the experiment (empty = all 13).
	Apps []string
}

// Table1 measures the overhead of PYTHIA-RECORD on every application
// (paper section III-C1): vanilla vs recorded execution time, the number of
// recorded events, and the average grammar size.
func Table1(cfg Table1Config) ([]Table1Row, error) {
	if cfg.Repetitions <= 0 {
		cfg.Repetitions = 10
	}
	list, err := selectApps(cfg.Apps)
	if err != nil {
		return nil, err
	}
	var rows []Table1Row
	for _, app := range list {
		var vanilla, recorded []time.Duration
		var events int64
		var rules float64
		for rep := 0; rep < cfg.Repetitions; rep++ {
			v := RunMPIApp(app, cfg.Class, false, recordSeed)
			vanilla = append(vanilla, v.Wall)
			r := RunMPIApp(app, cfg.Class, true, recordSeed)
			recorded = append(recorded, r.Wall)
			if rep == 0 {
				events = r.Trace.TotalEvents()
				var sum int64
				for _, th := range r.Trace.Threads {
					sum += int64(len(th.Grammar.Rules))
				}
				rules = float64(sum) / float64(len(r.Trace.Threads))
			}
		}
		vs, rs := Summarise(vanilla), Summarise(recorded)
		overhead := 0.0
		if vs.Mean > 0 {
			overhead = (float64(rs.Mean)/float64(vs.Mean) - 1) * 100
		}
		rows = append(rows, Table1Row{
			App:      app.Name,
			Vanilla:  vs,
			Record:   rs,
			Overhead: overhead,
			Events:   events,
			Rules:    rules,
		})
	}
	return rows, nil
}

// WriteTable1 renders rows in the paper's Table I layout.
func WriteTable1(w io.Writer, class apps.Class, rows []Table1Row) error {
	rw := &reportWriter{w: w}
	rw.printf("Table I: Performance evaluation of PYTHIA-RECORD (%s working set)\n", class)
	t := &table{header: []string{
		"Application", "Vanilla (ms)", "Record (ms)", "overhead(%)", "# events", "# rules",
	}}
	for _, r := range rows {
		t.add(
			r.App,
			fmt.Sprintf("%.1f", float64(r.Vanilla.Mean)/1e6),
			fmt.Sprintf("%.1f", float64(r.Record.Mean)/1e6),
			fmt.Sprintf("%+.1f", r.Overhead),
			fmt.Sprintf("%d", r.Events),
			fmt.Sprintf("%.1f", r.Rules),
		)
	}
	t.write(rw)
	return rw.err
}

func selectApps(names []string) ([]apps.App, error) {
	if len(names) == 0 {
		return apps.All(), nil
	}
	var out []apps.App
	for _, n := range names {
		a, err := apps.ByName(n)
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}
