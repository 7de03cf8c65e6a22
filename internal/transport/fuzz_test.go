package transport

import (
	"encoding/binary"
	"testing"
	"time"

	"repro/internal/predictor"
)

// FuzzRingDecode drives the consumer-side ring decoder with hostile
// geometry and segment contents: arbitrary cursor values (torn/partial
// writes land here as mid-update cursors), arbitrary seqlock state, and
// geometry that disagrees with the segment. The invariants under test:
// geometry validation never lets a bad layout through, ConsumeInto either
// decodes in-bounds ids or reports ErrRingCorrupt (it must never read out
// of range — the segment is exactly SegmentSize bytes, so any OOB access
// faults or trips -race), and ReadPredictions never returns more than
// PredCap entries no matter what the count word says. The doorbell is
// producer-writable too: whatever it reads, a push and a bounded Wait must
// return, and the header must still validate (the bell is live state, not
// geometry).
func FuzzRingDecode(f *testing.F) {
	f.Add(1, 64, 1, uint64(0), uint64(0), uint64(0), uint64(0), uint32(0), []byte{})
	f.Add(2, 64, 8, uint64(5), uint64(70), uint64(2), uint64(3), uint32(1), []byte{1, 2, 3, 4})
	f.Add(1, 64, 1, uint64(1<<63), uint64(1), uint64(1), uint64(1<<40), uint32(2), []byte{0xff})
	f.Add(1, 128, 4, uint64(100), uint64(100+129), uint64(4), uint64(5), uint32(0xFFFFFFFF), []byte{})
	f.Add(0, 0, 0, uint64(0), uint64(0), uint64(0), uint64(0), uint32(0), []byte{})
	f.Add(-1, 1<<20, -5, uint64(0), uint64(0), uint64(0), uint64(0), uint32(1), []byte{})

	f.Fuzz(func(t *testing.T, rings, slots, predCap int, head, tail, seq, cnt uint64, bell uint32, fill []byte) {
		g := Geometry{Rings: rings, Slots: slots, PredCap: predCap}
		seg, err := NewMemSegment(g)
		if err != nil {
			// Hostile geometry must be rejected before any allocation is
			// sized from it; nothing further to check.
			return
		}
		// Scribble fuzz bytes over the post-header region (torn/partial
		// writes, garbage predictions, arbitrary id values).
		body := seg[headerSize:]
		for i, b := range fill {
			body[(i*31)%len(body)] = b
		}
		mapped, err := MapRings(seg, g)
		if err != nil {
			t.Fatalf("MapRings rejected its own NewMemSegment: %v", err)
		}
		r := &mapped[0]
		// Hostile cursor and seqlock state, as a misbehaving peer would
		// leave them mid-write.
		binaryStore(r.head, head)
		binaryStore(r.tail, tail)
		binaryStore(r.seq, seq)
		binaryStore(r.cnt, cnt)

		buf := make([]int32, g.Slots+3)
		n, err := r.ConsumeInto(buf)
		if err == nil {
			if n < 0 || n > g.Slots {
				t.Fatalf("ConsumeInto decoded %d ids from a %d-slot ring", n, g.Slots)
			}
		} else if err != ErrRingCorrupt {
			t.Fatalf("ConsumeInto: unexpected error %v", err)
		}
		if p := r.Pending(); p < 0 || p > g.Slots {
			t.Fatalf("Pending() = %d on a %d-slot ring", p, g.Slots)
		}

		preds := make([]predictor.Prediction, 0, 4)
		preds, ok := r.ReadPredictions(preds)
		if ok && len(preds) > g.PredCap {
			t.Fatalf("ReadPredictions returned %d entries, capacity %d", len(preds), g.PredCap)
		}

		// A scribbled bell: the push still lands or reports full, and a
		// consumer waiting on the bell is bounded by its timeout.
		b := SegmentBell(seg)
		b.CorruptForTest(bell)
		r.TryPush(7)
		b.Wait(time.Microsecond)

		// The header must still validate (decode touches nothing before
		// headerSize) and a flipped header must not.
		if err := ReadHeader(seg, g); err != nil {
			t.Fatalf("header damaged by decode: %v", err)
		}
		binary.LittleEndian.PutUint64(seg[0:], ^segMagic)
		if err := ReadHeader(seg, g); err == nil {
			t.Fatal("ReadHeader accepted a corrupted magic")
		}
	})
}

// binaryStore writes a word without the atomic package so the fuzz body
// reads as plain state setup (single-goroutine, no concurrency here).
func binaryStore(p *uint64, v uint64) { *p = v }
