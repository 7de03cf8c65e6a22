package tracefile

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/events"
	"repro/internal/model"
	"repro/internal/recorder"
)

// fuzzSeedTraceSet records a small deterministic trace for the fuzz corpus.
func fuzzSeedTraceSet() *model.TraceSet {
	reg := events.NewRegistry()
	a := reg.Intern("alpha")
	b := reg.InternArgs("beta", 3)
	rec := recorder.New()
	var now int64
	for i := 0; i < 40; i++ {
		rec.RecordAt(a, now)
		now += 10
		rec.RecordAt(b, now)
		now += 30
	}
	return &model.TraceSet{
		Events:  reg.Names(),
		Threads: map[int32]*model.ThreadTrace{0: rec.Finish()},
	}
}

// FuzzRead checks the decoder never panics or hangs on arbitrary input —
// trace files come from disk and must be treated as untrusted.
func FuzzRead(f *testing.F) {
	var buf bytes.Buffer
	if err := Write(&buf, fuzzSeedTraceSet()); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(append([]byte(nil), valid...))
	f.Add(append([]byte(nil), valid[:len(valid)/2]...))
	f.Add([]byte("PYTHIA1\n"))
	f.Add([]byte{})
	mutated := append([]byte(nil), valid...)
	if len(mutated) > 20 {
		mutated[15] ^= 0xff
	}
	f.Add(mutated)
	f.Add(fileWithKey(f, make([]byte, 5)))

	f.Fuzz(func(t *testing.T, data []byte) {
		ts, err := Read(bytes.NewReader(data))
		if err != nil {
			return // rejection is fine; panics and hangs are not
		}
		// Anything accepted must be internally consistent.
		if verr := ts.Validate(); verr != nil {
			t.Fatalf("Read accepted an invalid trace set: %v", verr)
		}
	})
}

// FuzzRecoverJournal throws arbitrary bytes into a journal directory as two
// generations — one fuzzed, one always valid — and checks recovery never
// panics, never hangs, and always finds the valid generation: the salvage
// path must treat a crashed run's directory as fully untrusted input.
func FuzzRecoverJournal(f *testing.F) {
	var buf bytes.Buffer
	if err := Write(&buf, fuzzSeedTraceSet()); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(append([]byte(nil), valid...))
	f.Add(append([]byte(nil), valid[:len(valid)/2]...))
	f.Add([]byte("PYTHIA1\n"))
	f.Add([]byte{})
	torn := append([]byte(nil), valid...)
	if len(torn) > 20 {
		torn[len(torn)-3] ^= 0xff
	}
	f.Add(torn)

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, GenPrefix+"1"), valid, 0o666); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, GenPrefix+"2"), data, 0o666); err != nil {
			t.Fatal(err)
		}
		ts, rep, err := Recover(dir)
		if err != nil {
			t.Fatalf("Recover lost the valid generation: %v", err)
		}
		if verr := ts.Validate(); verr != nil {
			t.Fatalf("Recover returned an invalid trace set: %v", verr)
		}
		if ts.Provenance == nil || !ts.Provenance.Salvaged {
			t.Fatalf("recovered trace lacks salvaged provenance: %+v", ts.Provenance)
		}
		if rep.Used == nil {
			t.Fatal("nil Used in a successful recovery report")
		}
		// If the fuzzed generation was skipped, the report must say why.
		if rep.Used.Generation == 1 && (len(rep.Skipped) != 1 || rep.Skipped[0].Err == "") {
			t.Fatalf("generation 2 skipped without a reason: %+v", rep.Skipped)
		}
	})
}
