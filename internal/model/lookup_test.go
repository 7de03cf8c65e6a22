package model_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/apps"
	"repro/internal/grammar"
	"repro/internal/model"
	"repro/internal/progress"
	"repro/internal/tracefile"
)

// suffixKey is the string key of the last depth (at most MaxContextDepth)
// runs of refs, as trace files key a timing context: each run's rule and
// position as little-endian uint32s, outermost run first.
func suffixKey(refs []grammar.UserRef, depth int) string {
	depth = min(depth, len(refs), model.MaxContextDepth)
	b := make([]byte, 0, 8*depth)
	for _, r := range refs[len(refs)-depth:] {
		b = binary.LittleEndian.AppendUint32(b, uint32(r.Rule))
		b = binary.LittleEndian.AppendUint32(b, uint32(r.Pos))
	}
	return string(b)
}

// refTiming is the string-keyed timing model the context table replaced:
// one map entry per suffix key, looked up deepest key first. It is the
// reference FuzzMeanForPathDiff holds Timing.MeanForPath to.
type refTiming struct {
	bySuffix map[string]model.Stat
	byEvent  map[int32]model.Stat
}

func newRefTiming() *refTiming {
	return &refTiming{bySuffix: map[string]model.Stat{}, byEvent: map[int32]model.Stat{}}
}

func (r *refTiming) addPath(refs []grammar.UserRef, eventID int32, ns int64) {
	for d := 1; d <= min(len(refs), model.MaxContextDepth); d++ {
		k := suffixKey(refs, d)
		s := r.bySuffix[k]
		s.Add(ns)
		r.bySuffix[k] = s
	}
	s := r.byEvent[eventID]
	s.Add(ns)
	r.byEvent[eventID] = s
}

func (r *refTiming) meanForPath(refs []grammar.UserRef, eventID int32) float64 {
	k := suffixKey(refs, model.MaxContextDepth)
	for from := 0; from < len(k); from += 8 {
		if s, ok := r.bySuffix[k[from:]]; ok && s.Count > 0 {
			return s.Mean()
		}
	}
	if s, ok := r.byEvent[eventID]; ok && s.Count > 0 {
		return s.Mean()
	}
	return 0
}

// timingFile returns the bytes of a one-thread trace file (grammar: the
// single event 0) whose timing section holds the keys and event statistics
// of r, keys in the order given: the decoder's input, written by hand so it
// can hold what the encoder never writes — zero-count keys, and deep keys
// without their tails.
func timingFile(r *refTiming, keys []string) []byte {
	stat := func(p []byte, s model.Stat) []byte {
		p = binary.AppendUvarint(p, uint64(s.Count))
		p = binary.AppendVarint(p, s.Sum)
		p = binary.AppendVarint(p, s.Min)
		return binary.AppendVarint(p, s.Max)
	}
	p := binary.AppendUvarint(nil, tracefile.Version)
	p = append(p, 1, 1, 'e')  // one event descriptor, "e"
	p = append(p, 1, 0, 0)    // one thread: tid 0, no flags
	p = append(p, 1, 1, 0, 1) // one rule of one run, event 0 once
	p = append(p, 1)          // timing follows
	p = binary.AppendUvarint(p, uint64(len(keys)))
	for _, k := range keys {
		p = binary.AppendUvarint(p, uint64(len(k)))
		p = stat(append(p, k...), r.bySuffix[k])
	}
	p = binary.AppendUvarint(p, uint64(len(r.byEvent)))
	for id, s := range r.byEvent {
		p = stat(binary.AppendVarint(p, int64(id)), s)
	}
	p = append(p, 0) // no provenance
	out := append(append([]byte(nil), tracefile.Magic[:]...), p...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(p))
}

// FuzzMeanForPathDiff holds Timing.MeanForPath to the string-keyed
// reference, bit for bit, on Timings built three ways from the fuzz input:
// by AddPath, by TimingBuilder (non-negative event ids, as the replay has
// them), and by the trace-file decoder from explicit keys, zero-count keys
// and deep keys without their tails among them. Every stored path is looked
// up as it is, cut shorter, grown past MaxContextDepth and with an unknown
// innermost run, for known, unknown and negative event ids.
//
// Each input byte op starts a piece: op&3 of 0 or 1 is an observation,
// 2 a decoder key, 3 a decoder event statistic; the following bytes give
// its runs (rule b&3, position b>>2&3), event and values.
func FuzzMeanForPathDiff(f *testing.F) {
	// Observations: two depth-2 paths sharing their inner run {1 1}, two
	// depth-4 ones through {2 0} {1 0} {1 1}, a depth-6 one.
	f.Add([]byte{
		0x04, 0x01, 0x05, 0x01, 0x10,
		0x04, 0x02, 0x05, 0x01, 0x40,
		0x0c, 0x03, 0x02, 0x01, 0x05, 0x00, 0x60,
		0x0c, 0x00, 0x02, 0x01, 0x05, 0x00, 0x10,
		0x14, 0x07, 0x06, 0x03, 0x02, 0x01, 0x05, 0x03, 0x22,
	})
	// Decoder keys: a zero-count key over a counted tail, a depth-4 key
	// whose depth-3 tail is absent, a depth-3 key with no tail at all,
	// event statistics for a negative and a zero-count id; then an
	// observation.
	f.Add([]byte{
		0x06, 0x01, 0x05, 0x00, 0x20,
		0x02, 0x05, 0x01, 0x50,
		0x0e, 0x03, 0x02, 0x01, 0x05, 0x02, 0x70,
		0x0a, 0x06, 0x09, 0x01, 0x01, 0x30,
		0x03, 0xfe, 0x02,
		0x03, 0x00, 0x00,
		0x00, 0x05, 0x01, 0x33,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		path := func(depth int) []grammar.UserRef {
			refs := make([]grammar.UserRef, depth)
			for i := range refs {
				b := next()
				refs[i] = grammar.UserRef{Rule: int32(b & 3), Pos: int32(b >> 2 & 3)}
			}
			return refs
		}
		added, wantAdded := model.NewTiming(), newRefTiming()
		var built model.TimingBuilder
		wantBuilt, wantRead := newRefTiming(), newRefTiming()
		var keys []string
		var paths [][]grammar.UserRef
		for len(data) > 0 {
			op := next()
			switch op & 3 {
			case 0, 1:
				refs := path(1 + int(op>>2)%(model.MaxContextDepth+2))
				ev, ns := int32(next()%5)-1, int64(next())*37-1000
				added.AddPath(refs, ev, ns)
				wantAdded.addPath(refs, ev, ns)
				if ev >= 0 {
					built.Add(refs, ev, ns)
					wantBuilt.addPath(refs, ev, ns)
				}
				paths = append(paths, refs)
			case 2:
				refs := path(1 + int(op>>2)%model.MaxContextDepth)
				n, v := int64(next()%3), int64(next())-100
				k := suffixKey(refs, len(refs))
				wantRead.bySuffix[k] = model.Stat{Count: n, Sum: n * v, Min: v, Max: v + n}
				keys = append(keys, k)
				paths = append(paths, refs)
			case 3:
				id, n := int32(int8(next())), int64(next()%3)
				wantRead.byEvent[id] = model.Stat{Count: n, Sum: 7 * n, Min: 1, Max: 9}
			}
		}
		ts, err := tracefile.Read(bytes.NewReader(timingFile(wantRead, keys)))
		if err != nil {
			t.Fatalf("decoder refused a well-formed file: %v", err)
		}
		read, builtTiming := ts.Threads[0].Timing, built.Timing()
		unknown := grammar.UserRef{Rule: 9, Pos: 9}
		for _, p := range paths {
			deeper := append([]grammar.UserRef{{Rule: 1, Pos: 1}, {Rule: 2, Pos: 0}, unknown}, p...)
			for _, q := range [][]grammar.UserRef{p, p[1:], deeper, append(p[:len(p):len(p)], unknown), nil} {
				for ev := int32(-2); ev <= 4; ev++ {
					for _, c := range []struct {
						name string
						tm   *model.Timing
						want *refTiming
					}{{"AddPath", added, wantAdded}, {"TimingBuilder", builtTiming, wantBuilt}, {"decoder", read, wantRead}} {
						got, want := c.tm.MeanForPath(q, ev), c.want.meanForPath(q, ev)
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s: MeanForPath(%v, %d) = %v, reference %v", c.name, q, ev, got, want)
						}
					}
				}
			}
		}
	})
}

// TestTimingBuilderRandomPaths: over random progress sequences of every
// length from 1 past MaxContextDepth — thousands of distinct contexts, so the
// slot table doubles many times, and sparse event ids — the builder's Timing
// equals an AddPath loop's.
func TestTimingBuilderRandomPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var b model.TimingBuilder
	want := model.NewTiming()
	for i := 0; i < 40_000; i++ {
		refs := make([]grammar.UserRef, 1+rng.Intn(model.MaxContextDepth+2))
		for j := range refs {
			refs[j] = grammar.UserRef{Rule: int32(rng.Intn(6)), Pos: int32(rng.Intn(4))}
		}
		id, ns := int32(rng.Intn(5)*7), int64(rng.Intn(50))
		b.Add(refs, id, ns)
		want.AddPath(refs, id, ns)
	}
	if want.Contexts() < 5000 {
		t.Fatalf("only %d contexts", want.Contexts())
	}
	got := b.Timing()
	if model.Canonical(got) != model.Canonical(want) {
		t.Fatalf("builder and AddPath disagree: %d/%d contexts, %d/%d events",
			got.Contexts(), want.Contexts(), len(got.ByEvent), len(want.ByEvent))
	}
	if got := new(model.TimingBuilder).Timing(); got.Contexts() != 0 || len(got.ByEvent) != 0 {
		t.Fatalf("empty builder yields %d contexts, %d events", got.Contexts(), len(got.ByEvent))
	}
}

// TestMeanForPathConcurrent: the predictors of a tenant share one Timing,
// so lookups must only read it. Four goroutines look up every path of a
// random model at once and each gets the answers of a lone reader; run
// under -race this also fails on any write a lookup makes.
func TestMeanForPathConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var b model.TimingBuilder
	paths := make([][]grammar.UserRef, 2000)
	for i := range paths {
		paths[i] = make([]grammar.UserRef, 1+rng.Intn(model.MaxContextDepth+2))
		for j := range paths[i] {
			paths[i][j] = grammar.UserRef{Rule: int32(rng.Intn(6)), Pos: int32(rng.Intn(4))}
		}
		if i%2 == 0 {
			b.Add(paths[i], int32(i%5), int64(rng.Intn(50)))
		}
	}
	tm := b.Timing()
	want := make([]float64, len(paths))
	for i, p := range paths {
		want[i] = tm.MeanForPath(p, int32(i%5))
	}
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, p := range paths {
				if got := tm.MeanForPath(p, int32(i%5)); math.Float64bits(got) != math.Float64bits(want[i]) {
					t.Errorf("path %d: concurrent lookup %v, lone lookup %v", i, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

var meanSink float64

// BenchmarkMeanForPathApps times Timing.MeanForPath, the predictor's
// per-hypothesis duration lookup, over the root-anchored window paths (the
// innermost MaxContextDepth runs) of every event of rank 0 of each mix7
// application at class medium, looked up in that rank's own timing model:
//
//	go test -run '^$' -bench MeanForPathApps ./internal/model
func BenchmarkMeanForPathApps(b *testing.B) {
	for _, name := range mix7 {
		r, _ := record(rankStreams(b, name, apps.Medium)[0])
		th := r.Finish()
		f := th.Grammar
		var paths [][]grammar.UserRef
		var ids []int32
		var walk, scratch progress.Frontier
		var refs []grammar.UserRef
		for ok := walk.SetStart(f); ok; {
			refs = walk.AppendRefs(0, refs[:0])
			paths = append(paths, append([]grammar.UserRef(nil), refs[max(0, len(refs)-model.MaxContextDepth):]...))
			ids = append(ids, walk.Terminal(f, 0))
			_, res := walk.AdvanceLone(f, &scratch)
			ok = res == progress.AdvanceOK
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for j, p := range paths {
					meanSink += th.Timing.MeanForPath(p, ids[j])
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*int64(len(paths))), "ns/lookup")
		})
	}
}
