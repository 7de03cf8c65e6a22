package harness

import (
	"fmt"
	"io"
	"slices"

	"repro/internal/apps"
	"repro/pythia"
)

// DefaultDistances is the prediction-distance sweep of Figs. 8 and 9.
var DefaultDistances = []int{1, 2, 4, 8, 16, 32, 64, 128}

// Fig8Row is one accuracy measurement: application, replayed working set,
// prediction distance, and the fraction of correct predictions.
type Fig8Row struct {
	App      string
	Class    apps.Class
	Distance int
	Accuracy float64
	Samples  int
}

// Fig8Config tunes the accuracy experiment.
type Fig8Config struct {
	// Apps restricts the experiment (empty = all 13).
	Apps []string
	// Distances to evaluate (default DefaultDistances).
	Distances []int
}

// Fig8 measures the accuracy of PYTHIA-PREDICT (paper section III-C2): a
// trace is recorded on the small working set, then the application runs
// with every working set; at every blocking call the oracle predicts the
// event x events ahead and the prediction is scored against what actually
// happened.
func Fig8(cfg Fig8Config) ([]Fig8Row, error) {
	if len(cfg.Distances) == 0 {
		cfg.Distances = DefaultDistances
	}
	list, err := selectApps(cfg.Apps)
	if err != nil {
		return nil, err
	}
	var rows []Fig8Row
	for _, app := range list {
		ref := RunMPIApp(app, apps.Small, true, recordSeed)
		for _, class := range []apps.Class{apps.Small, apps.Medium, apps.Large} {
			acc, err := ScoreReplay(ref.Trace, CaptureStreams(app, class, replaySeed), cfg.Distances)
			if err != nil {
				return nil, err
			}
			for _, d := range cfg.Distances {
				if acc.Samples[d] == 0 {
					// The stream is shorter than this distance everywhere
					// (EP's handful of events): nothing to score.
					continue
				}
				rows = append(rows, Fig8Row{
					App: app.Name, Class: class, Distance: d,
					Accuracy: acc.Rate(d), Samples: acc.Samples[d],
				})
			}
		}
	}
	return rows, nil
}

// Accuracy is the score of one replay: per distance, the predictions
// scored and the correct ones, and the predictor's tracking counters summed
// over the replayed ranks.
type Accuracy struct {
	Hits, Samples               map[int]int
	Followed, Observed, Unknown int64
}

// Rate is the fraction of correct predictions at distance d (0 when none
// was scored).
func (a Accuracy) Rate(d int) float64 {
	if a.Samples[d] == 0 {
		return 0
	}
	return float64(a.Hits[d]) / float64(a.Samples[d])
}

// ScoreReplay replays each rank's event stream against the reference trace,
// tracking from the very beginning of the execution as the paper's deployed
// runtimes do, and scores every blocking event that still has a future: the
// oracle predicts the next events up to the largest distance, clamped to
// what remains of the stream, and distance d is scored where the stream
// reaches i+d. Short streams (EP, FT, IS) score only the distances that
// fit. Fig. 8, the rank-count extension and pythia-predict all score here.
func ScoreReplay(ref *pythia.TraceSet, streams map[int32][]string, distances []int) (Accuracy, error) {
	acc := Accuracy{Hits: make(map[int]int), Samples: make(map[int]int)}
	maxDist := slices.Max(distances)
	for _, tid := range sortedThreadIDs(streams) {
		stream := streams[tid]
		oracle, err := pythia.NewPredictOracle(ref, pythia.Config{})
		if err != nil {
			return acc, fmt.Errorf("building oracle for rank %d: %w", tid, err)
		}
		th := oracle.Thread(tid)
		if th.Predictor() == nil {
			continue
		}
		th.StartAtBeginning()
		for i, name := range stream {
			th.Submit(oracle.Intern(name))
			if !IsBlockingEvent(name) || i+1 >= len(stream) {
				continue
			}
			preds := th.PredictSequence(min(maxDist, len(stream)-1-i))
			for _, d := range distances {
				if i+d >= len(stream) {
					continue
				}
				acc.Samples[d]++
				if d-1 < len(preds) &&
					oracle.EventName(pythia.ID(preds[d-1].EventID)) == stream[i+d] {
					acc.Hits[d]++
				}
			}
		}
		// Quarantine (divergence watchdog) is a legitimate fail-open
		// outcome on a divergent replay; only Degraded — a contained
		// panic or breached budget — invalidates the score.
		if h := oracle.Health(); h.State == pythia.Degraded {
			return acc, fmt.Errorf("oracle degraded replaying rank %d: %s", tid, h.Cause)
		}
		st := th.Predictor().Stats()
		acc.Followed += st.Followed
		acc.Observed += st.Observed
		acc.Unknown += st.Unknown
	}
	return acc, nil
}

// WriteFig8 renders the accuracy series, one block per application with one
// line per working set (the paper plots these as per-application panels).
func WriteFig8(w io.Writer, distances []int, rows []Fig8Row) error {
	if len(distances) == 0 {
		distances = DefaultDistances
	}
	rw := &reportWriter{w: w}
	rw.println("Fig 8: Accuracy of PYTHIA-PREDICT predictions (trace recorded on small)")
	header := []string{"Application", "Working set"}
	for _, d := range distances {
		header = append(header, fmt.Sprintf("x=%d", d))
	}
	t := &table{header: header}
	type key struct {
		app   string
		class apps.Class
	}
	cells := make(map[key]map[int]float64)
	var order []key
	for _, r := range rows {
		k := key{r.App, r.Class}
		if cells[k] == nil {
			cells[k] = make(map[int]float64)
			order = append(order, k)
		}
		cells[k][r.Distance] = r.Accuracy
	}
	for _, k := range order {
		row := []string{k.app, k.class.String()}
		for _, d := range distances {
			if v, ok := cells[k][d]; ok {
				row = append(row, fmt.Sprintf("%5.1f%%", v*100))
			} else {
				row = append(row, "    -")
			}
		}
		t.add(row...)
	}
	t.write(rw)
	return rw.err
}
