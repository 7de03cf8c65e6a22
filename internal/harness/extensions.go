package harness

import (
	"fmt"
	"io"

	"repro/internal/apps"
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

// ExtRanks records each application on refRanks processes (small working
// set) and replays executions with the given rank counts, scoring
// next-event accuracy at the blocking calls of the ranks both runs share.
func ExtRanks(appNames []string, refRanks int, replayRanks []int) ([]ExtRanksRow, error) {
	list, err := selectApps(appNames)
	if err != nil {
		return nil, err
	}
	var rows []ExtRanksRow
	for _, app := range list {
		ref := runRanks(app, apps.Small, true, recordSeed, refRanks)
		for _, rr := range replayRanks {
			streams := streamsOf(runRanks(app, apps.Small, true, replaySeed, rr).Trace)
			for tid := range streams {
				if tid >= int32(min(refRanks, rr)) {
					delete(streams, tid)
				}
			}
			acc, err := ScoreReplay(ref.Trace, streams, []int{1})
			if err != nil {
				return nil, err
			}
			row := ExtRanksRow{
				App: app.Name, RefRanks: refRanks, ReplayRanks: rr,
				Distance: 1, Accuracy: acc.Rate(1), Samples: acc.Samples[1],
			}
			if acc.Observed > 0 {
				row.UnknownPct = float64(acc.Unknown) / float64(acc.Observed)
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

	_, _, ts := runLuleshOnce(m, m.Cores, size, true, nil, 0, 0)
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
			th.Submit(end)
		}
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
