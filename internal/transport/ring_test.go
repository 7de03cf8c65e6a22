package transport

import (
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/predictor"
)

func testGeometry() Geometry { return Geometry{Rings: 2, Slots: 64, PredCap: 8} }

func newTestRings(t *testing.T, g Geometry) []Ring {
	t.Helper()
	seg, err := NewMemSegment(g)
	if err != nil {
		t.Fatalf("NewMemSegment(%+v): %v", g, err)
	}
	rings, err := MapRings(seg, g)
	if err != nil {
		t.Fatalf("MapRings: %v", err)
	}
	return rings
}

func TestGeometryValidate(t *testing.T) {
	cases := []struct {
		name string
		g    Geometry
		ok   bool
	}{
		{"minimal", Geometry{Rings: 1, Slots: MinSlots, PredCap: 1}, true},
		{"typical", Geometry{Rings: 8, Slots: 4096, PredCap: 64}, true},
		{"zero rings", Geometry{Rings: 0, Slots: 64, PredCap: 1}, false},
		{"negative rings", Geometry{Rings: -1, Slots: 64, PredCap: 1}, false},
		{"too many rings", Geometry{Rings: MaxRings + 1, Slots: 64, PredCap: 1}, false},
		{"slots below min", Geometry{Rings: 1, Slots: MinSlots / 2, PredCap: 1}, false},
		{"slots above max", Geometry{Rings: 1, Slots: MaxSlots * 2, PredCap: 1}, false},
		{"slots not pow2", Geometry{Rings: 1, Slots: 100, PredCap: 1}, false},
		{"zero predcap", Geometry{Rings: 1, Slots: 64, PredCap: 0}, false},
		{"huge predcap", Geometry{Rings: 1, Slots: 64, PredCap: MaxPredCap + 1}, false},
		{"max everything", Geometry{Rings: MaxRings, Slots: MaxSlots, PredCap: MaxPredCap}, true},
	}
	for _, tc := range cases {
		err := tc.g.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: Validate() = %v, want nil", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: Validate() = nil, want error", tc.name)
		}
		if !tc.ok && err != nil && !errors.Is(err, ErrBadGeometry) {
			t.Errorf("%s: Validate() = %v, not ErrBadGeometry", tc.name, err)
		}
	}
}

func TestSegmentSizeWithinCap(t *testing.T) {
	g := Geometry{Rings: MaxRings, Slots: MaxSlots, PredCap: MaxPredCap}
	if err := g.Validate(); err != nil {
		t.Fatalf("max geometry invalid: %v", err)
	}
	if g.SegmentSize() > MaxSegment {
		t.Fatalf("max geometry needs %d bytes, cap is %d", g.SegmentSize(), MaxSegment)
	}
}

func TestMapRingsRejectsWrongSize(t *testing.T) {
	g := testGeometry()
	seg, err := NewMemSegment(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MapRings(seg[:len(seg)-1], g); !errors.Is(err, ErrBadSegment) {
		t.Errorf("short segment: MapRings = %v, want ErrBadSegment", err)
	}
	if _, err := MapRings(seg, Geometry{Rings: 0, Slots: 64, PredCap: 1}); !errors.Is(err, ErrBadGeometry) {
		t.Errorf("bad geometry: MapRings = %v, want ErrBadGeometry", err)
	}
}

func TestReadHeader(t *testing.T) {
	g := testGeometry()
	seg, err := NewMemSegment(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := ReadHeader(seg, g); err != nil {
		t.Fatalf("ReadHeader on fresh segment: %v", err)
	}
	if err := ReadHeader(seg[:headerSize-1], g); !errors.Is(err, ErrBadSegment) {
		t.Errorf("truncated header: %v, want ErrBadSegment", err)
	}
	other := g
	other.Slots *= 2
	if err := ReadHeader(seg, other); !errors.Is(err, ErrBadSegment) {
		t.Errorf("geometry mismatch: %v, want ErrBadSegment", err)
	}
	// A version-1 segment has no doorbell: its producer would never wake
	// a sleeping pump, so the server refuses it and the client stays on
	// the socket.
	binary.LittleEndian.PutUint32(seg[8:], 1)
	if err := ReadHeader(seg, g); !errors.Is(err, ErrBadSegment) {
		t.Errorf("version 1: %v, want ErrBadSegment", err)
	}
	binary.LittleEndian.PutUint32(seg[8:], segVersion)
	seg[0] ^= 0xff
	if err := ReadHeader(seg, g); !errors.Is(err, ErrBadSegment) {
		t.Errorf("bad magic: %v, want ErrBadSegment", err)
	}
}

func TestRingRoundTripWithWrap(t *testing.T) {
	g := testGeometry()
	r := &newTestRings(t, g)[0]
	buf := make([]int32, g.Slots)

	// Push/consume several times the slot count so head and tail wrap.
	next := int32(0)
	want := int32(0)
	for round := 0; round < 10; round++ {
		n := g.Slots/2 + round // varying batch sizes straddle the wrap point
		for i := 0; i < n; i++ {
			if !r.TryPush(next) {
				t.Fatalf("round %d: ring full after %d pushes", round, i)
			}
			next++
		}
		got, err := r.ConsumeInto(buf)
		if err != nil {
			t.Fatalf("round %d: ConsumeInto: %v", round, err)
		}
		if got != n {
			t.Fatalf("round %d: consumed %d, want %d", round, got, n)
		}
		for i := 0; i < got; i++ {
			if buf[i] != want {
				t.Fatalf("round %d: buf[%d] = %d, want %d", round, i, buf[i], want)
			}
			want++
		}
	}
	if r.Consumed() != uint64(want) {
		t.Errorf("Consumed() = %d, want %d", r.Consumed(), want)
	}
}

func TestRingFullRejectsPush(t *testing.T) {
	g := testGeometry()
	r := &newTestRings(t, g)[0]
	for i := 0; i < g.Slots; i++ {
		if !r.TryPush(int32(i)) {
			t.Fatalf("push %d rejected before ring was full", i)
		}
	}
	if r.TryPush(999) {
		t.Fatal("push accepted on a full ring")
	}
	if r.Pending() != g.Slots {
		t.Fatalf("Pending() = %d, want %d", r.Pending(), g.Slots)
	}
	buf := make([]int32, 1)
	if n, err := r.ConsumeInto(buf); err != nil || n != 1 {
		t.Fatalf("ConsumeInto = (%d, %v), want (1, nil)", n, err)
	}
	if !r.TryPush(999) {
		t.Fatal("push rejected after a slot freed up")
	}
}

func TestRingHostileTailIsCorruptNotOOB(t *testing.T) {
	g := testGeometry()
	r := &newTestRings(t, g)[0]
	// A hostile producer advances tail past the invariant. The consumer must
	// report corruption, never read out of range (indices are masked, so the
	// only observable failure mode is the error).
	atomic.StoreUint64(r.tail, uint64(g.Slots)+1)
	buf := make([]int32, g.Slots)
	if _, err := r.ConsumeInto(buf); !errors.Is(err, ErrRingCorrupt) {
		t.Fatalf("ConsumeInto = %v, want ErrRingCorrupt", err)
	}
	// Pending clamps rather than reporting a nonsense count.
	if p := r.Pending(); p != g.Slots {
		t.Fatalf("Pending() on corrupt ring = %d, want clamp to %d", p, g.Slots)
	}
}

func TestConsumeIntoPartialBuffer(t *testing.T) {
	g := testGeometry()
	r := &newTestRings(t, g)[0]
	for i := int32(0); i < 10; i++ {
		r.TryPush(i)
	}
	buf := make([]int32, 4)
	n, err := r.ConsumeInto(buf)
	if err != nil || n != 4 {
		t.Fatalf("ConsumeInto = (%d, %v), want (4, nil)", n, err)
	}
	n, err = r.ConsumeInto(buf)
	if err != nil || n != 4 {
		t.Fatalf("second ConsumeInto = (%d, %v), want (4, nil)", n, err)
	}
	n, err = r.ConsumeInto(buf)
	if err != nil || n != 2 {
		t.Fatalf("third ConsumeInto = (%d, %v), want (2, nil)", n, err)
	}
}

func TestPredictionSlotRoundTrip(t *testing.T) {
	g := testGeometry()
	r := &newTestRings(t, g)[0]

	if _, ok := r.ReadPredictions(nil); ok {
		t.Fatal("ReadPredictions reported ok before any publish")
	}

	preds := []predictor.Prediction{
		{EventID: 7, Probability: 0.75, Distance: 1, ExpectedNs: 1234.5},
		{EventID: -3, Probability: 0.25, Distance: 16, ExpectedNs: math.Inf(1)},
		{EventID: 0, Probability: 0, Distance: -2, ExpectedNs: 0},
	}
	r.PublishPredictions(preds)
	got, ok := r.ReadPredictions(nil)
	if !ok {
		t.Fatal("ReadPredictions not ok after publish")
	}
	if len(got) != len(preds) {
		t.Fatalf("read %d predictions, want %d", len(got), len(preds))
	}
	for i := range preds {
		if got[i].EventID != preds[i].EventID ||
			got[i].Distance != preds[i].Distance ||
			math.Float64bits(got[i].Probability) != math.Float64bits(preds[i].Probability) ||
			math.Float64bits(got[i].ExpectedNs) != math.Float64bits(preds[i].ExpectedNs) {
			t.Errorf("prediction %d: got %+v, want %+v (bit-level)", i, got[i], preds[i])
		}
	}

	// Republish fewer; the slot reflects only the latest publish.
	r.PublishPredictions(preds[:1])
	got, ok = r.ReadPredictions(got)
	if !ok || len(got) != 1 || got[0].EventID != 7 {
		t.Fatalf("after republish: got %v ok=%v, want 1 prediction id 7", got, ok)
	}
}

func TestPublishTruncatesAtCapacity(t *testing.T) {
	g := testGeometry()
	r := &newTestRings(t, g)[0]
	preds := make([]predictor.Prediction, g.PredCap+5)
	for i := range preds {
		preds[i].EventID = int32(i)
	}
	r.PublishPredictions(preds)
	got, ok := r.ReadPredictions(nil)
	if !ok || len(got) != g.PredCap {
		t.Fatalf("got %d predictions ok=%v, want %d", len(got), ok, g.PredCap)
	}
}

func TestReadPredictionsHostileCount(t *testing.T) {
	g := testGeometry()
	r := &newTestRings(t, g)[0]
	r.PublishPredictions([]predictor.Prediction{{EventID: 1}})
	// A hostile server writes an out-of-bounds count; the reader fails open.
	atomic.StoreUint64(r.cnt, uint64(g.PredCap)+1)
	if _, ok := r.ReadPredictions(nil); ok {
		t.Fatal("ReadPredictions accepted an out-of-bounds count")
	}
	// A permanently odd seqlock (wedged writer) must not hang the reader.
	atomic.StoreUint64(r.seq, 3)
	if _, ok := r.ReadPredictions(nil); ok {
		t.Fatal("ReadPredictions reported ok with a wedged seqlock")
	}
}

// TestSeqlockTornReadStress hammers the prediction slot from a writer that
// republishes while wrapping the event ring, and a reader that replays under
// -race: every successful read must be internally consistent (all fields from
// the same publish).
func TestSeqlockTornReadStress(t *testing.T) {
	g := testGeometry()
	r := &newTestRings(t, g)[0]
	const rounds = 20000
	var done atomic.Bool

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		buf := make([]int32, g.Slots)
		preds := make([]predictor.Prediction, 0, 4)
		for v := uint64(1); v <= rounds; v++ {
			// Wrap the ring while publishing, like the real server pump.
			for i := 0; i < 3; i++ {
				if n, err := r.ConsumeInto(buf); err != nil {
					t.Errorf("ConsumeInto: %v", err)
					return
				} else if n == 0 {
					break
				}
			}
			preds = preds[:0]
			// Every field encodes v so a torn read is detectable.
			for i := 0; i < 3; i++ {
				preds = append(preds, predictor.Prediction{
					EventID:     int32(v),
					Probability: float64(v),
					Distance:    int(v),
					ExpectedNs:  float64(v),
				})
			}
			r.PublishPredictions(preds)
		}
	}()
	go func() {
		defer wg.Done()
		var got []predictor.Prediction
		var ok bool
		reads := 0
		// Run until the writer finishes (on one CPU the goroutines only
		// interleave at yield points) and land at least one good read.
		for i := 0; !done.Load() || reads == 0; i++ {
			if i%4 == 0 {
				r.TryPush(int32(i)) // keep the ring wrapping under the writer
			}
			got, ok = r.ReadPredictions(got)
			if !ok {
				runtime.Gosched()
				continue
			}
			reads++
			for _, p := range got {
				v := uint64(p.EventID)
				if uint64(p.Distance) != v || p.Probability != float64(v) || p.ExpectedNs != float64(v) {
					t.Errorf("torn read: %+v", p)
					return
				}
			}
		}
		if reads == 0 {
			t.Error("reader never completed a consistent read")
		}
	}()
	wg.Wait()
}

// TestBellPushWakesWaiter: a consumer waiting on an armed bell returns as
// soon as a push into any ring of the segment rings it, the push leaves the
// bell disarmed, and a disarmed bell does not block.
func TestBellPushWakesWaiter(t *testing.T) {
	g := testGeometry()
	seg, err := NewMemSegment(g)
	if err != nil {
		t.Fatal(err)
	}
	rings, err := MapRings(seg, g)
	if err != nil {
		t.Fatal(err)
	}
	bell := SegmentBell(seg)
	bell.Arm()
	woke := make(chan time.Duration)
	go func() {
		t0 := time.Now()
		bell.Wait(time.Minute)
		woke <- time.Since(t0)
	}()
	time.Sleep(5 * time.Millisecond) // let the waiter block
	if !rings[1].TryPush(1) {
		t.Fatal("push rejected")
	}
	select {
	case d := <-woke:
		t.Logf("waiter woke %v after it blocked", d)
	case <-time.After(10 * time.Second):
		t.Fatal("a push did not wake the waiter")
	}
	if bell.Armed() {
		t.Error("the push left the bell armed")
	}
	t0 := time.Now()
	bell.Wait(time.Minute)
	if d := time.Since(t0); d > 5*time.Second {
		t.Errorf("Wait on a disarmed bell blocked %v", d)
	}
}

func TestRingZeroAlloc(t *testing.T) {
	g := testGeometry()
	r := &newTestRings(t, g)[0]
	buf := make([]int32, g.Slots)
	preds := make([]predictor.Prediction, 0, g.PredCap)
	r.PublishPredictions([]predictor.Prediction{{EventID: 1}, {EventID: 2}})

	if n := testing.AllocsPerRun(200, func() {
		if !r.TryPush(42) {
			r.ConsumeInto(buf)
		}
	}); n != 0 {
		t.Errorf("TryPush allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		r.TryPush(1)
		r.TryPush(2)
		if _, err := r.ConsumeInto(buf); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("ConsumeInto allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		var ok bool
		preds, ok = r.ReadPredictions(preds)
		if !ok {
			t.Fatal("read failed")
		}
	}); n != 0 {
		t.Errorf("ReadPredictions allocates %v per run, want 0", n)
	}
}

func BenchmarkRingPushConsume(b *testing.B) {
	g := Geometry{Rings: 1, Slots: 4096, PredCap: 8}
	seg, err := NewMemSegment(g)
	if err != nil {
		b.Fatal(err)
	}
	rings, err := MapRings(seg, g)
	if err != nil {
		b.Fatal(err)
	}
	r := &rings[0]
	buf := make([]int32, g.Slots)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !r.TryPush(int32(i)) {
			if _, err := r.ConsumeInto(buf); err != nil {
				b.Fatal(err)
			}
		}
	}
}
