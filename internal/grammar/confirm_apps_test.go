package grammar_test

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/apps"
	"repro/internal/events"
	"repro/internal/grammar"
	"repro/internal/harness"
)

// mix7 is the benchmark's record set: five regular applications and two
// whose control flow depends on the seed.
var mix7 = []string{"BT", "CG", "LU", "Lulesh", "Kripke", "AMG", "Quicksilver"}

// rankStreams captures app at class and returns its rank streams as
// interned event ids, ranks in order.
func rankStreams(t testing.TB, name string, class apps.Class) [][]int32 {
	t.Helper()
	app, err := apps.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	byTID := harness.CaptureStreams(app, class, 42)
	tids := make([]int32, 0, len(byTID))
	for tid := range byTID {
		tids = append(tids, tid)
	}
	sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })
	out := make([][]int32, len(tids))
	for i, tid := range tids {
		reg := events.NewRegistry()
		for _, ev := range byTID[tid] {
			out[i] = append(out[i], int32(reg.Intern(ev)))
		}
	}
	return out
}

// TestConfirmMatchesReductionOnApps holds the confirming fast path to the
// reduction alone on every rank of the 13 kernels at class small and of
// the benchmark's mix7 at class medium, with a Freeze every 512 events:
// EventCount, RuleCount and NodeCount agree after every event, Freeze()
// agrees at every checkpoint and at the end, and the final grammar passes
// the strict invariants. It logs the share of events the fast path
// counted instead of reducing.
func TestConfirmMatchesReductionOnApps(t *testing.T) {
	var names []string
	for _, app := range apps.All() {
		names = append(names, app.Name)
	}
	sets := []struct {
		class apps.Class
		names []string
	}{{apps.Small, names}, {apps.Medium, mix7}}
	if testing.Short() {
		sets = sets[:1]
	}
	for _, set := range sets {
		var confirmed, total int64
		for _, name := range set.names {
			var appConfirmed, appTotal int64
			for rank, stream := range rankStreams(t, name, set.class) {
				fast, ref := grammar.New(), grammar.NewReference()
				for i, id := range stream {
					fast.Append(id)
					ref.Append(id)
					if fast.EventCount() != ref.EventCount() || fast.RuleCount() != ref.RuleCount() || fast.NodeCount() != ref.NodeCount() {
						t.Fatalf("%s.%s rank %d event %d: events/rules/nodes %d/%d/%d, reference %d/%d/%d",
							name, set.class, rank, i, fast.EventCount(), fast.RuleCount(), fast.NodeCount(),
							ref.EventCount(), ref.RuleCount(), ref.NodeCount())
					}
					if (i+1)%512 == 0 || i+1 == len(stream) {
						if f, r := fast.Freeze(), ref.Freeze(); !reflect.DeepEqual(f.Rules, r.Rules) {
							t.Fatalf("%s.%s rank %d: Freeze after %d events differs:\n%s\nreference:\n%s",
								name, set.class, rank, i+1, f.Dump(nil), r.Dump(nil))
						}
					}
				}
				if err := fast.CheckInvariantsStrict(); err != nil {
					t.Fatalf("%s.%s rank %d: %v", name, set.class, rank, err)
				}
				appConfirmed += grammar.ConfirmedEvents(fast)
				appTotal += int64(len(stream))
			}
			t.Logf("%s.%s: %.1f%% of %d events confirmed", name, set.class, 100*float64(appConfirmed)/float64(max(appTotal, 1)), appTotal)
			confirmed += appConfirmed
			total += appTotal
		}
		t.Logf("class %s: %.1f%% of %d events confirmed", set.class, 100*float64(confirmed)/float64(max(total, 1)), total)
	}
}

// BenchmarkAppendApps appends every rank of each mix7 application at class
// medium to a fresh grammar, with the fast path on and off, and reports the
// cost per event and the share of events the fast path counted:
//
//	go test -run '^$' -bench AppendApps -benchtime 30x ./internal/grammar
func BenchmarkAppendApps(b *testing.B) {
	for _, name := range mix7 {
		ranks := rankStreams(b, name, apps.Medium)
		events := 0
		for _, s := range ranks {
			events += len(s)
		}
		for _, path := range []struct {
			name string
			New  func() *grammar.Grammar
		}{{"fast", grammar.New}, {"reference", grammar.NewReference}} {
			b.Run(name+"/"+path.name, func(b *testing.B) {
				var confirmed int64
				for i := 0; i < b.N; i++ {
					confirmed = 0
					for _, s := range ranks {
						g := path.New()
						for _, id := range s {
							g.Append(id)
						}
						confirmed += grammar.ConfirmedEvents(g)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*events), "ns/event")
				b.ReportMetric(100*float64(confirmed)/float64(events), "confirmed%")
			})
		}
	}
}
