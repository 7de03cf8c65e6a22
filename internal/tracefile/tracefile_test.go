package tracefile

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/events"
	"repro/internal/grammar"
	"repro/internal/model"
	"repro/internal/predictor"
	"repro/internal/recorder"
)

// makeTraceSet records a small two-thread application with timing.
func makeTraceSet(t *testing.T) *model.TraceSet {
	t.Helper()
	reg := events.NewRegistry()
	a := reg.InternArgs("MPI_Isend", 1)
	b := reg.InternArgs("MPI_Irecv", 1)
	w := reg.Intern("MPI_Wait")
	bar := reg.Intern("MPI_Barrier")
	ts := &model.TraceSet{Threads: make(map[int32]*model.ThreadTrace)}
	for tid := int32(0); tid < 2; tid++ {
		rec := recorder.New()
		var now int64
		for i := 0; i < 100; i++ {
			rec.RecordAt(a, now)
			now += 10
			rec.RecordAt(b, now)
			now += 20
			rec.RecordAt(w, now)
			now += 500
			if i%25 == 24 {
				rec.RecordAt(bar, now)
				now += 2000
			}
		}
		ts.Threads[tid] = rec.Finish()
	}
	ts.Events = reg.Names()
	return ts
}

func TestRoundTrip(t *testing.T) {
	ts := makeTraceSet(t)
	var buf bytes.Buffer
	if err := Write(&buf, ts); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !reflect.DeepEqual(got.Events, ts.Events) {
		t.Fatalf("event tables differ:\n%v\n%v", got.Events, ts.Events)
	}
	if len(got.Threads) != len(ts.Threads) {
		t.Fatalf("thread count %d, want %d", len(got.Threads), len(ts.Threads))
	}
	for tid, th := range ts.Threads {
		gth, ok := got.Threads[tid]
		if !ok {
			t.Fatalf("thread %d missing after round trip", tid)
		}
		if !reflect.DeepEqual(gth.Grammar.Unfold(), th.Grammar.Unfold()) {
			t.Fatalf("thread %d grammar unfolds differently", tid)
		}
		if gth.Grammar.EventCount != th.Grammar.EventCount {
			t.Fatalf("thread %d event count %d, want %d", tid, gth.Grammar.EventCount, th.Grammar.EventCount)
		}
		if !reflect.DeepEqual(contextsByKey(gth.Timing), contextsByKey(th.Timing)) {
			t.Fatalf("thread %d suffix timing differs", tid)
		}
		if !reflect.DeepEqual(gth.Timing.ByEvent, th.Timing.ByEvent) {
			t.Fatalf("thread %d event timing differs", tid)
		}
		// Derived data must be rebuilt identically.
		for i := range th.Grammar.Rules {
			if gth.Grammar.Rules[i].Occ != th.Grammar.Rules[i].Occ ||
				gth.Grammar.Rules[i].Len != th.Grammar.Rules[i].Len {
				t.Fatalf("thread %d rule %d derived data differs", tid, i)
			}
		}
	}
}

// contextsByKey returns tm's contexts by their trace-file keys: the form in
// which two Timings compare, whatever order their tables interned in.
func contextsByKey(tm *model.Timing) map[string]model.Stat {
	m := make(map[string]model.Stat)
	tm.EachContext(func(refs []grammar.UserRef, s model.Stat) {
		var b [model.MaxContextDepth * 8]byte
		m[string(b[:suffixKey(&b, refs)])] = s
	})
	return m
}

func TestSuffixKeyDepths(t *testing.T) {
	refs := []grammar.UserRef{{Rule: 0, Pos: 1}, {Rule: 2, Pos: 0}, {Rule: 3, Pos: 4}}
	key := func(refs []grammar.UserRef) string {
		var b [model.MaxContextDepth * 8]byte
		return string(b[:suffixKey(&b, refs)])
	}
	k1, k2, k3 := key(refs[2:]), key(refs[1:]), key(refs)
	if len(k1) != 8 || len(k2) != 16 || len(k3) != 24 {
		t.Fatalf("key lengths: %d %d %d", len(k1), len(k2), len(k3))
	}
	// Suffix property: a deeper key must end with the shallower one.
	if k2[len(k2)-8:] != k1 || k3[len(k3)-16:] != k2 {
		t.Fatal("a deeper key does not extend the shallower one")
	}
	if k1 != "\x03\x00\x00\x00\x04\x00\x00\x00" {
		t.Fatalf("depth-1 key %q, want rule then position, little-endian", k1)
	}
}

// fileWithKey returns a one-thread trace file (grammar: the single event 0)
// whose timing section holds one context, keyed by key.
func fileWithKey(t testing.TB, key []byte) []byte {
	t.Helper()
	g, err := grammar.NewFrozen([][]grammar.Run{{{Sym: grammar.Terminal(0), Count: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	var payload bytes.Buffer
	bw := bufio.NewWriter(&payload)
	e := &encoder{w: bw}
	e.uvarint(Version)
	e.uvarint(1)
	e.bytes([]byte("e"))
	e.uvarint(1) // one thread: tid 0, no flags
	e.svarint(0)
	e.uvarint(0)
	e.grammar(g)
	e.uvarint(1) // timing: one context, no event statistics
	e.uvarint(1)
	e.bytes(key)
	e.stat(model.Stat{Count: 1, Sum: 5, Min: 5, Max: 5})
	e.uvarint(0)
	e.uvarint(0) // no provenance
	if err := errors.Join(e.err, bw.Flush()); err != nil {
		t.Fatal(err)
	}
	out := append(append([]byte(nil), Magic[:]...), payload.Bytes()...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload.Bytes()))
}

// TestReadRefusesMalformedTimingKey: a timing key that is empty, not a
// whole number of 8-byte runs or deeper than MaxContextDepth fails the read
// with ErrMalformedTimingKey; keys of 1 to MaxContextDepth runs load.
func TestReadRefusesMalformedTimingKey(t *testing.T) {
	for _, n := range []int{0, 5, 12, 8 * (model.MaxContextDepth + 1)} {
		_, err := Read(bytes.NewReader(fileWithKey(t, make([]byte, n))))
		if !errors.Is(err, ErrMalformedTimingKey) {
			t.Errorf("%d-byte key: err = %v, want ErrMalformedTimingKey", n, err)
		}
	}
	for d := 1; d <= model.MaxContextDepth; d++ {
		ts, err := Read(bytes.NewReader(fileWithKey(t, make([]byte, 8*d))))
		if err != nil {
			t.Fatalf("%d-run key: %v", d, err)
		}
		if n := ts.Threads[0].Timing.Contexts(); n != 1 {
			t.Fatalf("%d-run key: %d contexts, want 1", d, n)
		}
	}
}

func TestRoundTripPredictsIdentically(t *testing.T) {
	ts := makeTraceSet(t)
	var buf bytes.Buffer
	if err := Write(&buf, ts); err != nil {
		t.Fatal(err)
	}
	loaded, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	p := predictor.New(loaded.Trace(0), predictor.Config{})
	p.StartAtBeginning()
	seq := ts.Threads[0].Grammar.Unfold()
	for i, e := range seq {
		pred, ok := p.PredictAt(1)
		if !ok || pred.EventID != e {
			t.Fatalf("step %d: predicted (%v,%v), want %d", i, pred.EventID, ok, e)
		}
		p.Observe(e)
	}
}

func TestSaveLoadFile(t *testing.T) {
	ts := makeTraceSet(t)
	path := filepath.Join(t.TempDir(), "app.pythia")
	if err := Save(path, ts); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got.TotalEvents() != ts.TotalEvents() {
		t.Fatalf("TotalEvents %d, want %d", got.TotalEvents(), ts.TotalEvents())
	}
}

func TestBadMagic(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("NOTAPYTH-rest"))); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestTruncatedFile(t *testing.T) {
	ts := makeTraceSet(t)
	var buf bytes.Buffer
	if err := Write(&buf, ts); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for _, cut := range []int{4, 9, len(raw) / 2, len(raw) - 2} {
		if _, err := Read(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestCorruptedPayloadDetected(t *testing.T) {
	ts := makeTraceSet(t)
	var buf bytes.Buffer
	if err := Write(&buf, ts); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Flip one byte mid-payload. Either decoding fails structurally or the
	// checksum catches it; silence is the only failure.
	corrupted := 0
	for pos := 10; pos < len(raw)-5; pos += 7 {
		mod := append([]byte(nil), raw...)
		mod[pos] ^= 0x55
		if _, err := Read(bytes.NewReader(mod)); err != nil {
			corrupted++
		}
	}
	if corrupted == 0 {
		t.Fatal("no corruption was ever detected")
	}
}

func TestDeterministicOutput(t *testing.T) {
	ts := makeTraceSet(t)
	var a, b bytes.Buffer
	if err := Write(&a, ts); err != nil {
		t.Fatal(err)
	}
	if err := Write(&b, ts); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("serialisation is not deterministic")
	}
}

func TestWriteRejectsInvalid(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, &model.TraceSet{}); err == nil {
		t.Fatal("empty trace set accepted")
	}
}

func TestCompactness(t *testing.T) {
	// A very repetitive million-event trace must serialise to a tiny file —
	// the whole point of storing the grammar instead of the trace.
	reg := events.NewRegistry()
	a := reg.Intern("stepA")
	b := reg.Intern("stepB")
	rec := recorder.New()
	var now int64
	for i := 0; i < 500000; i++ {
		rec.RecordAt(a, now)
		now += 3
		rec.RecordAt(b, now)
		now += 5
	}
	ts := &model.TraceSet{
		Events:  reg.Names(),
		Threads: map[int32]*model.ThreadTrace{0: rec.Finish()},
	}
	var buf bytes.Buffer
	if err := Write(&buf, ts); err != nil {
		t.Fatal(err)
	}
	if buf.Len() > 4096 {
		t.Fatalf("1M-event repetitive trace serialised to %d bytes, want < 4KiB", buf.Len())
	}
}
