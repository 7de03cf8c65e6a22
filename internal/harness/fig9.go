package harness

import (
	"fmt"
	"io"
	"time"

	"repro/internal/apps"
	"repro/pythia"
)

// Fig9Row is one prediction-cost measurement: the mean latency of a single
// oracle query at a given distance.
type Fig9Row struct {
	App      string
	Distance int
	MeanCost time.Duration
	Samples  int
}

// Fig9Config tunes the prediction-cost experiment.
type Fig9Config struct {
	// Apps restricts the experiment (empty = all 13).
	Apps []string
	// Distances to evaluate (default DefaultDistances).
	Distances []int
}

// Fig9 measures the cost of PYTHIA-PREDICT queries by prediction distance
// (paper section III-C3) on the large working set. At every blocking event
// of one rank it queries the thread at every distance in ascending order,
// and the predictor keeps its look-ahead between calls and across
// observations. A row is therefore the amortised cost of a query against a
// warm look-ahead, not the cost of the paper's cold query, which grows
// linearly with the distance.
func Fig9(cfg Fig9Config) ([]Fig9Row, error) {
	if len(cfg.Distances) == 0 {
		cfg.Distances = DefaultDistances
	}
	list, err := selectApps(cfg.Apps)
	if err != nil {
		return nil, err
	}
	var rows []Fig9Row
	for _, app := range list {
		// The queries replay the recorded execution itself.
		ref := RunMPIApp(app, apps.Large, true, recordSeed)
		streams := streamsOf(ref.Trace)
		tid := sortedThreadIDs(streams)[0]
		stream := streams[tid]

		oracle, err := pythia.NewPredictOracle(ref.Trace, pythia.Config{})
		if err != nil {
			return nil, err
		}
		th := oracle.Thread(tid)
		th.StartAtBeginning()

		costs := make(map[int]time.Duration)
		counts := make(map[int]int)
		for _, name := range stream {
			th.Submit(oracle.Intern(name))
			if !IsBlockingEvent(name) {
				continue
			}
			for _, d := range cfg.Distances {
				start := time.Now()
				th.PredictAt(d)
				costs[d] += time.Since(start)
				counts[d]++
			}
		}
		for _, d := range cfg.Distances {
			mean := time.Duration(0)
			if counts[d] > 0 {
				mean = costs[d] / time.Duration(counts[d])
			}
			rows = append(rows, Fig9Row{App: app.Name, Distance: d, MeanCost: mean, Samples: counts[d]})
		}
	}
	return rows, nil
}

// WriteFig9 renders the cost series, one line per application.
func WriteFig9(w io.Writer, distances []int, rows []Fig9Row) error {
	if len(distances) == 0 {
		distances = DefaultDistances
	}
	rw := &reportWriter{w: w}
	rw.println("Fig 9: Cost of PYTHIA-PREDICT predictions (large working set, µs per query)")
	header := []string{"Application"}
	for _, d := range distances {
		header = append(header, fmt.Sprintf("x=%d", d))
	}
	t := &table{header: header}
	cells := make(map[string]map[int]time.Duration)
	var order []string
	for _, r := range rows {
		if cells[r.App] == nil {
			cells[r.App] = make(map[int]time.Duration)
			order = append(order, r.App)
		}
		cells[r.App][r.Distance] = r.MeanCost
	}
	for _, app := range order {
		row := []string{app}
		for _, d := range distances {
			row = append(row, fmt.Sprintf("%7.2f", float64(cells[app][d])/1e3))
		}
		t.add(row...)
	}
	t.write(rw)
	return rw.err
}
