package tracefile_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/apps"
	"repro/internal/events"
	"repro/internal/harness"
	"repro/internal/model"
	"repro/internal/recorder"
	"repro/pythia"
)

// timedTraceSet records every rank stream of app at class small (seed 42),
// as the harness captures them, on a synthetic clock: about a microsecond
// between events, varied so that the statistics differ.
func timedTraceSet(t *testing.T, app apps.App) *model.TraceSet {
	t.Helper()
	streams := harness.CaptureStreams(app, apps.Small, 42)
	tids := make([]int32, 0, len(streams))
	for tid := range streams {
		tids = append(tids, tid)
	}
	sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })
	reg := events.NewRegistry()
	ts := &model.TraceSet{Threads: make(map[int32]*model.ThreadTrace, len(tids))}
	for _, tid := range tids {
		var now int64
		r := recorder.New(recorder.WithClock(func() int64 { return now }))
		for i, ev := range streams[tid] {
			now += 1000 + int64(i*7919%613)
			r.RecordAt(reg.Intern(ev), now)
		}
		ts.Threads[tid] = r.Finish()
	}
	ts.Events = reg.Names()
	return ts
}

// untimedTraceSet records app at class small (seed 42) the way
// pythia-record does: through the harness, without timestamps.
func untimedTraceSet(t *testing.T, app apps.App) *model.TraceSet {
	t.Helper()
	run, err := harness.RunMPIAppWithOracle(pythia.NewRecordOracle(pythia.WithoutTimestamps()), app, apps.Small, 42)
	if err != nil {
		t.Fatal(err)
	}
	return run.Trace
}

// TestTraceFileBytesStable pins the on-disk format: the size and SHA-256 of
// the file SaveTraceSet writes for BT and AMG at class small, untimed as
// pythia-record writes them and timed on a synthetic clock, and that Load
// then Save gives back the same bytes. A change to these constants is a
// change of the file format.
func TestTraceFileBytesStable(t *testing.T) {
	for _, c := range []struct {
		app   string
		timed bool
		size  int
		sum   string
	}{
		{"BT", false, 1646, "49441e5984bcbea2f2b592e00bd00687a4cffdc22c5963bba314bc3dce6e7b85"},
		{"BT", true, 9156, "71da9e803adf39488ca4441149fdb95fed0e914ed85bed326bf575aec04c3696"},
		{"AMG", false, 1184, "e3b6f3f02d9e22dfce84c7c7a4c6f45727970f643795a2934e2a3fe6e917aedf"},
		{"AMG", true, 14071, "0366b850b70d16d730d1f518322c19e6fc509f6740587064bdc54405e2807e76"},
	} {
		app, err := apps.ByName(c.app)
		if err != nil {
			t.Fatal(err)
		}
		ts := untimedTraceSet
		if c.timed {
			ts = timedTraceSet
		}
		dir := t.TempDir()
		path := filepath.Join(dir, "a.pythia")
		if err := pythia.SaveTraceSet(path, ts(t, app)); err != nil {
			t.Fatal(err)
		}
		data := readFile(t, path)
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); len(data) != c.size || got != c.sum {
			t.Errorf("%s timed=%v: %d bytes, sha256 %s; want %d bytes, %s", c.app, c.timed, len(data), got, c.size, c.sum)
		}
		loaded, err := pythia.LoadTraceSet(path)
		if err != nil {
			t.Fatal(err)
		}
		again := filepath.Join(dir, "b.pythia")
		if err := pythia.SaveTraceSet(again, loaded); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(readFile(t, again), data) {
			t.Errorf("%s timed=%v: Load then Save changes the file", c.app, c.timed)
		}
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
