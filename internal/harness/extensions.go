package harness

import (
	"fmt"
	"io"
	"time"

	"repro/internal/apps"
	"repro/internal/mpisim"
	"repro/internal/ompsim"
	"repro/pythia"
)

// This file implements the extension experiment suggested by the paper's
// conclusion: "Further investigations are needed to make Pythia able to
// predict accurately when the application runs with different configuration
// (number of threads, number of processes, ...)". We quantify the problem:
// record a reference execution with one rank count, replay with another, and
// measure how far accuracy drops. Point-to-point events carry the peer rank
// in their payload, so changing the process count renames a large share of
// the alphabet — the paper's open problem in its sharpest form.

// ExtRanksRow is one (application, replayed rank count) accuracy result.
type ExtRanksRow struct {
	App         string
	RefRanks    int
	ReplayRanks int
	Distance    int
	Accuracy    float64
	// UnknownPct is the fraction of replayed events absent from the
	// reference trace (peer ranks that did not exist at record time).
	UnknownPct float64
	Samples    int
}

// runMPIAppRanks is RunMPIApp with an explicit rank count.
func runMPIAppRanks(app apps.App, class apps.Class, record bool, seed int64, ranks int) MPIRun {
	var oracle *pythia.Oracle
	if record {
		oracle = pythia.NewRecordOracle(pythia.WithoutTimestamps())
	}
	w := mpisim.NewWorld(ranks)
	body := appBody(app, class, seed, record, oracle)
	start := time.Now()
	if record {
		w.RunInterposed(func(m mpisim.MPI) mpisim.MPI {
			return mpisim.NewInterposer(m, oracle)
		}, body)
	} else {
		w.Run(body)
	}
	out := MPIRun{Wall: time.Since(start)}
	if record {
		out.Trace = mustFinish(oracle)
	}
	return out
}

// ExtRanks records each application on refRanks processes (small working
// set) and replays executions with the given rank counts, scoring
// next-event accuracy at the blocking calls of the ranks both runs share.
func ExtRanks(appNames []string, refRanks int, replayRanks []int, maxSamples int) ([]ExtRanksRow, error) {
	list, err := selectApps(appNames)
	if err != nil {
		return nil, err
	}
	if maxSamples <= 0 {
		maxSamples = 100
	}
	var rows []ExtRanksRow
	for _, app := range list {
		ref := runMPIAppRanks(app, apps.Small, true, 42, refRanks)
		for _, rr := range replayRanks {
			capture := runMPIAppRanks(app, apps.Small, true, 43, rr)
			hits, total := 0, 0
			var unknown, observed int64
			common := refRanks
			if rr < common {
				common = rr
			}
			for tid := int32(0); tid < int32(common); tid++ {
				th := capture.Trace.Threads[tid]
				if th == nil {
					continue
				}
				ids := th.Grammar.Unfold()
				stream := make([]string, len(ids))
				for i, id := range ids {
					stream[i] = capture.Trace.Events[id]
				}
				oracle, err := pythia.NewPredictOracle(ref.Trace, pythia.Config{})
				if err != nil {
					return nil, err
				}
				pt := oracle.Thread(tid)
				if pt.Predictor() == nil {
					continue
				}
				pt.StartAtBeginning()
				var points []int
				for i, name := range stream {
					if IsBlockingEvent(name) && i+1 < len(stream) {
						points = append(points, i)
					}
				}
				stride := 1
				if len(points) > maxSamples {
					stride = len(points) / maxSamples
				}
				sample := make(map[int]bool)
				for i := 0; i < len(points); i += stride {
					sample[points[i]] = true
				}
				for i, name := range stream {
					pt.Submit(oracle.Intern(name))
					if sample[i] {
						total++
						if pred, ok := pt.PredictAt(1); ok &&
							oracle.EventName(pythia.ID(pred.EventID)) == stream[i+1] {
							hits++
						}
					}
				}
				st := pt.Predictor().Stats()
				unknown += st.Unknown
				observed += st.Observed
			}
			row := ExtRanksRow{
				App: app.Name, RefRanks: refRanks, ReplayRanks: rr,
				Distance: 1, Samples: total,
			}
			if total > 0 {
				row.Accuracy = float64(hits) / float64(total)
			}
			if observed > 0 {
				row.UnknownPct = float64(unknown) / float64(observed)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// WriteExtRanks renders the configuration-change extension results.
func WriteExtRanks(w io.Writer, rows []ExtRanksRow) error {
	rw := &reportWriter{w: w}
	rw.println("Extension: accuracy when the process count differs from the reference")
	rw.println("(the paper's conclusion flags this as an open problem)")
	t := &table{header: []string{"Application", "ref ranks", "replay ranks", "x=1 accuracy", "unknown events"}}
	for _, r := range rows {
		t.add(
			r.App,
			fmt.Sprintf("%d", r.RefRanks),
			fmt.Sprintf("%d", r.ReplayRanks),
			fmt.Sprintf("%5.1f%%", r.Accuracy*100),
			fmt.Sprintf("%5.1f%%", r.UnknownPct*100),
		)
	}
	t.write(rw)
	return rw.err
}

// ExtDurationRow quantifies the accuracy of the duration predictions that
// drive the section III-D optimisation: per LULESH region, the relative
// error between the predicted region duration and the modelled truth.
type ExtDurationRow struct {
	Region      string
	Samples     int
	MeanErrPct  float64
	WorstErrPct float64
}

// ExtDuration records the LULESH kernel on the virtual 24-core machine and
// replays it, comparing every region's predicted duration with its actual
// (modelled) duration. The paper uses these predictions but never reports
// their accuracy; this quantifies it.
func ExtDuration(size int64) ([]ExtDurationRow, error) {
	m := ompsim.Pudding()
	steps := apps.LuleshSteps(size)

	rec := pythia.NewRecordOracle()
	recRT := ompsim.New(ompsim.Config{MaxThreads: m.Cores, Machine: &m, Oracle: rec})
	apps.RunLuleshOMP(recRT, size, steps)
	recRT.Close()
	ts, err := rec.Finish()
	if err != nil {
		return nil, err
	}

	oracle, err := pythia.NewPredictOracle(ts, pythia.Config{})
	if err != nil {
		return nil, err
	}
	th := oracle.Thread(0)
	th.StartAtBeginning()

	type agg struct {
		n          int
		sum, worst float64
	}
	byRegion := map[string]*agg{}
	var vnow int64
	for step := 0; step < steps; step++ {
		for _, r := range apps.LuleshRegions() {
			begin := oracle.Intern("GOMP_parallel_start." + r.Name)
			end := oracle.Intern("GOMP_parallel_end." + r.Name)
			th.Submit(begin)
			actual := m.RegionNs(r.Work(size), m.Cores)
			if pred, ok := th.PredictDurationUntil(end, 8); ok && actual > 0 {
				errPct := (pred.ExpectedNs - float64(actual)) / float64(actual) * 100
				if errPct < 0 {
					errPct = -errPct
				}
				a := byRegion[r.Name]
				if a == nil {
					a = &agg{}
					byRegion[r.Name] = a
				}
				a.n++
				a.sum += errPct
				if errPct > a.worst {
					a.worst = errPct
				}
			}
			vnow += actual
			th.Submit(end)
		}
		vnow += 2_000
	}
	var rows []ExtDurationRow
	for _, r := range apps.LuleshRegions() {
		a := byRegion[r.Name]
		if a == nil || a.n == 0 {
			continue
		}
		rows = append(rows, ExtDurationRow{
			Region: r.Name, Samples: a.n,
			MeanErrPct: a.sum / float64(a.n), WorstErrPct: a.worst,
		})
	}
	return rows, nil
}

// WriteExtDuration renders the duration-accuracy extension.
func WriteExtDuration(w io.Writer, size int64, rows []ExtDurationRow) error {
	rw := &reportWriter{w: w}
	rw.printf("Extension: duration-prediction accuracy per LULESH region (s=%d, pudding)\n", size)
	t := &table{header: []string{"Region", "samples", "mean |err|", "worst |err|"}}
	var worstMean float64
	for _, r := range rows {
		t.add(r.Region,
			fmt.Sprintf("%d", r.Samples),
			fmt.Sprintf("%5.1f%%", r.MeanErrPct),
			fmt.Sprintf("%5.1f%%", r.WorstErrPct))
		if r.MeanErrPct > worstMean {
			worstMean = r.MeanErrPct
		}
	}
	t.write(rw)
	rw.printf("worst per-region mean error: %.1f%%\n", worstMean)
	return rw.err
}
