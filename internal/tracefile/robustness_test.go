package tracefile

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/events"
	"repro/internal/model"
	"repro/internal/recorder"
)

// truncatedTraceSet records past a tight event cap so the thread trace
// carries the truncation mark.
func truncatedTraceSet(t *testing.T) *model.TraceSet {
	t.Helper()
	reg := events.NewRegistry()
	a := reg.Intern("a")
	b := reg.Intern("b")
	rec := recorder.New(recorder.WithoutTimestamps(), recorder.WithMaxEvents(50))
	for i := 0; i < 100; i++ {
		rec.Record(a)
		rec.Record(b)
	}
	return &model.TraceSet{
		Events:  reg.Names(),
		Threads: map[int32]*model.ThreadTrace{0: rec.Finish()},
	}
}

func TestTruncatedFlagRoundTrip(t *testing.T) {
	ts := truncatedTraceSet(t)
	th := ts.Threads[0]
	if !th.Truncated || th.Dropped != 150 {
		t.Fatalf("precondition: truncated=%v dropped=%d, want true/150", th.Truncated, th.Dropped)
	}

	var buf bytes.Buffer
	if err := Write(&buf, ts); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	gth := got.Threads[0]
	if !gth.Truncated || gth.Dropped != th.Dropped {
		t.Fatalf("binary round trip lost truncation: truncated=%v dropped=%d", gth.Truncated, gth.Dropped)
	}

	jth := decodeJSON(t, ts).Threads["0"]
	if !jth.Truncated || jth.Dropped != th.Dropped {
		t.Fatalf("JSON export lost truncation: truncated=%v dropped=%d", jth.Truncated, jth.Dropped)
	}
}

// traceFile frames a payload as a trace file: magic, payload, CRC.
func traceFile(payload []byte) []byte {
	raw := append(append([]byte{}, Magic[:]...), payload...)
	return binary.LittleEndian.AppendUint32(raw, crc32.ChecksumIEEE(payload))
}

// oldPayload hand-writes a pre-v5 payload of ts: version 1 thread records
// carry no flags, version 2 adds them, and neither has anything after the
// thread records.
func oldPayload(t *testing.T, ts *model.TraceSet, version uint64) []byte {
	t.Helper()
	var payload bytes.Buffer
	pw := bufio.NewWriter(&payload)
	e := &encoder{w: pw}
	e.uvarint(version)
	e.uvarint(uint64(len(ts.Events)))
	for _, name := range ts.Events {
		e.bytes([]byte(name))
	}
	tids := ts.ThreadIDs()
	e.uvarint(uint64(len(tids)))
	for _, tid := range tids {
		th := ts.Threads[tid]
		e.svarint(int64(tid))
		if version >= 2 {
			e.uvarint(threadFlagTruncated)
			e.uvarint(uint64(th.Dropped))
		}
		e.grammar(th.Grammar)
		e.timing(th.Timing)
	}
	if e.err != nil {
		t.Fatal(e.err)
	}
	if err := pw.Flush(); err != nil {
		t.Fatal(err)
	}
	return payload.Bytes()
}

// wantUnsupported checks that raw fails to read with the unsupported-version
// error for version — no panic, no partial trace set.
func wantUnsupported(t *testing.T, version uint64, raw []byte) {
	t.Helper()
	got, err := Read(bytes.NewReader(raw))
	want := fmt.Sprintf("tracefile: unsupported version %d", version)
	if err == nil || err.Error() != want || got != nil {
		t.Errorf("version %d: Read = (%v, %v), want (nil, %q)", version, got, err, want)
	}
}

// TestReadVersion1: Read accepts Version only, so a hand-written version-1
// file (no per-thread flags) is refused.
func TestReadVersion1(t *testing.T) {
	wantUnsupported(t, 1, traceFile(oldPayload(t, makeTraceSet(t), 1)))
}

// TestReadVersion2: a hand-written version-2 file (thread flags, no
// provenance record) is refused.
func TestReadVersion2(t *testing.T) {
	wantUnsupported(t, 2, traceFile(oldPayload(t, truncatedTraceSet(t), 2)))
}

// TestReadRefusesOtherVersions: the current payload relabelled 3, 4 and 6
// fails with the unsupported-version error, while the same payload under
// Version reads.
func TestReadRefusesOtherVersions(t *testing.T) {
	var cur bytes.Buffer
	if err := Write(&cur, truncatedTraceSet(t)); err != nil {
		t.Fatal(err)
	}
	// The payload after its one-byte version field.
	body := cur.Bytes()[len(Magic)+1 : cur.Len()-4]
	relabel := func(version byte) []byte { return append([]byte{version}, body...) }
	if _, err := Read(bytes.NewReader(traceFile(relabel(Version)))); err != nil {
		t.Fatalf("the current payload, reframed, does not read: %v", err)
	}
	for _, version := range []byte{3, 4, 6} {
		wantUnsupported(t, uint64(version), traceFile(relabel(version)))
	}
}

// TestSaveReplacesExistingFile checks the fsync+rename path both creates
// and atomically replaces a trace file, and that no temp file survives.
func TestSaveReplacesExistingFile(t *testing.T) {
	ts := truncatedTraceSet(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.pythia")
	for i := 0; i < 2; i++ {
		if err := Save(path, ts); err != nil {
			t.Fatalf("Save #%d: %v", i, err)
		}
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Threads[0].Truncated {
		t.Fatal("reloaded trace lost truncation mark")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "trace.pythia" {
		t.Fatalf("directory not clean after Save: %v", entries)
	}
}
