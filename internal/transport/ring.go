// Package transport implements pythiad's tiered client/server transports:
//
//	tier 1  TCP           — any host, the PR 5 baseline (~100 µs round trips)
//	tier 2  unix socket   — same host, same wire protocol, ~½ the latency
//	tier 3  shared memory — same host, co-located runtimes: per-thread
//	                        seqlock'd SPSC rings in an mmap'd segment,
//	                        zero syscalls on the steady-state Submit path
//
// The address syntax picks tiers 1 and 2 ("tcp://host:port" or a bare
// "host:port"; "unix:///path/to.sock"); tier 3 is negotiated *over* a tier-2
// control connection (the segment is useless without one — session setup,
// predictions, and error reporting stay on the socket). A client that fails
// shm negotiation falls back to the socket it already has; a client that
// cannot reach a unix socket dials TCP. Every tier speaks the same
// `internal/wire` protocol and produces bit-identical predictions.
//
// # Shared-memory segment layout
//
// One segment per connection, created by the client, attached by the server
// over the wire (wire.ShmSetup), unlinked after both sides hold the mapping:
//
//	offset 0    header (64 B): magic, version, rings, slots, predCap, bell
//	offset 64   ring 0
//	...         ring i at 64 + i*ringSize
//
// The header's one live word is the doorbell (u32 at offset 24, see Bell);
// the rest of it is written once by the creator and read-only after.
// Each ring serves one bound session (one runtime thread) and is laid out
// in cache-line-separated regions so the producer and consumer never write
// the same line:
//
//	+0    head    u64   consumer cursor (server writes, client reads)
//	+64   tail    u64   producer cursor (client writes, server reads)
//	+128  predSeq u64   seqlock word for the prediction slot (server writes)
//	+136  predCnt u64   published prediction count, seqlock-covered
//	+192  predData      predCap × 24 B  (3 words per prediction), 64-aligned
//	+...  idSlots       slots × 4 B event ids, 64-aligned
//
// The submit path is a classic SPSC ring: the producer writes an event id at
// tail&mask and release-stores tail+1; the consumer acquire-loads tail,
// decodes the whole run head..tail in one pass, and release-stores the new
// head. Full/empty is disambiguated by never letting tail-head exceed the
// slot count, so no slot is wasted and a tail that violates the invariant is
// proof of a torn or hostile writer (ErrRingCorrupt, never an out-of-range
// read: indices are masked). The prediction slot is a seqlock: the server
// bumps predSeq to odd, writes count+data, bumps to even; the client retries
// a bounded number of times and treats a torn read as "no prediction yet".
//
// Cross-process visibility relies only on sync/atomic loads/stores on
// naturally aligned words in the mapping, which on every Go platform are
// plain MOVs with the needed ordering; a busy ring costs no syscall on
// either side. A consumer that finds its rings empty first naps between
// looks (Nap), which costs the producer nothing; once it has been idle a
// while it sleeps on the doorbell, the way io_uring's SQPOLL thread sleeps
// behind its NEED_WAKEUP flag: it arms the bell, looks at its rings once
// more, and blocks in FUTEX_WAIT on Linux (a nap of at most parkMaxSleep
// elsewhere). A push that finds the bell armed disarms it and makes the
// one FUTEX_WAKE, so a burst after a long idle pays one syscall on its
// first event and none after. A producer facing a full ring spins, then
// parks (Park).
//
// All geometry is validated as untrusted input (Geometry.Validate,
// MapRings): counts are bounded, slot counts must be powers of two, and
// every derived offset is checked against the actual segment length before
// a single byte is touched.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/predictor"
)

// Geometry bounds. A hostile peer can ask for at most MaxSegment bytes
// (checked before any allocation or mapping), and every count is bounded
// individually so their product cannot overflow.
const (
	MaxRings   = 256     // rings (bindable sessions) per segment
	MinSlots   = 64      // event-id slots per ring, lower bound
	MaxSlots   = 1 << 18 // event-id slots per ring, upper bound
	MaxPredCap = 1024    // predictions the slot can publish
	MaxSegment = 1 << 30 // total segment size cap (1 GiB)

	segMagic   uint64 = 0x50595448534d3031 // "PYTHSM01"
	segVersion uint32 = 2                  // 2: the doorbell word at bellOff

	headerSize = 64
	bellOff    = 24 // u32 doorbell in the header (see Bell)
	cacheLine  = 64

	ringHeadOff = 0   // u64, consumer cursor
	ringTailOff = 64  // u64, producer cursor
	ringSeqOff  = 128 // u64, prediction seqlock
	ringCntOff  = 136 // u64, prediction count
	ringPredOff = 192 // predictions, 3 u64 words each

	predWords = 3 // words per published prediction
)

// Ring errors.
var (
	ErrBadGeometry = errors.New("transport: invalid ring geometry")
	ErrBadSegment  = errors.New("transport: segment does not match geometry")
	ErrRingCorrupt = errors.New("transport: ring cursor invariant violated")
)

// Geometry describes a segment's ring layout. It crosses the wire during
// shm negotiation, so every consumer treats it as untrusted input and must
// call Validate before deriving a single offset from it.
type Geometry struct {
	Rings   int // rings in the segment
	Slots   int // event-id slots per ring (power of two)
	PredCap int // predictions the per-ring slot can hold
}

// Validate bounds every field. The bounds guarantee SegmentSize fits in an
// int without overflow, so a validated geometry can be used for sizing.
func (g Geometry) Validate() error {
	if g.Rings < 1 || g.Rings > MaxRings {
		return fmt.Errorf("%w: %d rings (want 1..%d)", ErrBadGeometry, g.Rings, MaxRings)
	}
	if g.Slots < MinSlots || g.Slots > MaxSlots {
		return fmt.Errorf("%w: %d slots (want %d..%d)", ErrBadGeometry, g.Slots, MinSlots, MaxSlots)
	}
	if g.Slots&(g.Slots-1) != 0 {
		return fmt.Errorf("%w: %d slots (want a power of two)", ErrBadGeometry, g.Slots)
	}
	if g.PredCap < 1 || g.PredCap > MaxPredCap {
		return fmt.Errorf("%w: prediction capacity %d (want 1..%d)", ErrBadGeometry, g.PredCap, MaxPredCap)
	}
	if g.SegmentSize() > MaxSegment {
		return fmt.Errorf("%w: segment size %d exceeds %d", ErrBadGeometry, g.SegmentSize(), MaxSegment)
	}
	return nil
}

// align64 rounds n up to the next multiple of a cache line.
func align64(n int) int { return (n + cacheLine - 1) &^ (cacheLine - 1) }

// ringSize is the per-ring footprint of a validated-bounds geometry.
func (g Geometry) ringSize() int {
	return ringPredOff + align64(g.PredCap*predWords*8) + align64(g.Slots*4)
}

// SegmentSize is the exact segment length this geometry requires. With every
// field within its Validate bound the worst case is ~832 MiB, well inside
// int range; callers must still Validate before trusting the result.
func (g Geometry) SegmentSize() int { return headerSize + g.Rings*g.ringSize() }

// WriteHeader stamps the segment header. The caller (the segment creator)
// has already validated g and sized seg with SegmentSize.
func WriteHeader(seg []byte, g Geometry) {
	binary.LittleEndian.PutUint64(seg[0:], segMagic)
	binary.LittleEndian.PutUint32(seg[8:], segVersion)
	binary.LittleEndian.PutUint32(seg[12:], uint32(g.Rings))
	binary.LittleEndian.PutUint32(seg[16:], uint32(g.Slots))
	binary.LittleEndian.PutUint32(seg[20:], uint32(g.PredCap))
}

// ReadHeader decodes and validates the segment header against the
// wire-negotiated geometry — defense in depth: the segment a hostile client
// names must itself agree with the geometry it claimed.
func ReadHeader(seg []byte, want Geometry) error {
	if len(seg) < headerSize {
		return fmt.Errorf("%w: %d-byte segment has no header", ErrBadSegment, len(seg))
	}
	if binary.LittleEndian.Uint64(seg[0:]) != segMagic {
		return fmt.Errorf("%w: bad magic", ErrBadSegment)
	}
	if v := binary.LittleEndian.Uint32(seg[8:]); v != segVersion {
		return fmt.Errorf("%w: segment version %d, want %d", ErrBadSegment, v, segVersion)
	}
	if int(binary.LittleEndian.Uint32(seg[12:])) != want.Rings ||
		int(binary.LittleEndian.Uint32(seg[16:])) != want.Slots ||
		int(binary.LittleEndian.Uint32(seg[20:])) != want.PredCap {
		return fmt.Errorf("%w: header geometry disagrees with negotiated geometry", ErrBadSegment)
	}
	return nil
}

// Ring is one mapped SPSC ring plus its seqlock'd prediction slot. The
// producer side (TryPush) belongs to exactly one goroutine, the consumer
// side (ConsumeInto) to exactly one goroutine; PublishPredictions belongs to
// the consumer process and ReadPredictions to the producer process.
type Ring struct {
	head *uint64  // consumer cursor
	tail *uint64  // producer cursor
	seq  *uint64  // prediction seqlock word
	cnt  *uint64  // published prediction count
	pred []uint64 // prediction slot words, predWords per entry
	ids  []int32  // event-id slots
	mask uint64
	bell *uint32 // the segment's doorbell, shared by all its rings

	// consumed counts ids the consumer has decoded over the ring's
	// lifetime; it feeds subscription refresh cadence without another
	// shared-memory word. Consumer-goroutine-owned.
	consumed uint64
}

// MapRings validates g against the segment and returns its rings. Nothing
// is written; mapping an in-flight segment is safe on both sides.
func MapRings(seg []byte, g Geometry) ([]Ring, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if len(seg) != g.SegmentSize() {
		return nil, fmt.Errorf("%w: %d-byte segment, geometry needs %d", ErrBadSegment, len(seg), g.SegmentSize())
	}
	if uintptr(unsafe.Pointer(&seg[0]))&7 != 0 {
		return nil, fmt.Errorf("%w: segment base not 8-byte aligned", ErrBadSegment)
	}
	rings := make([]Ring, g.Rings)
	bell := SegmentBell(seg).word
	rs := g.ringSize()
	predBytes := align64(g.PredCap * predWords * 8)
	for i := range rings {
		base := headerSize + i*rs
		r := &rings[i]
		r.head = word64(seg, base+ringHeadOff)
		r.tail = word64(seg, base+ringTailOff)
		r.seq = word64(seg, base+ringSeqOff)
		r.cnt = word64(seg, base+ringCntOff)
		r.pred = unsafe.Slice((*uint64)(unsafe.Pointer(&seg[base+ringPredOff])), g.PredCap*predWords)
		r.ids = unsafe.Slice((*int32)(unsafe.Pointer(&seg[base+ringPredOff+predBytes])), g.Slots)
		r.mask = uint64(g.Slots) - 1
		r.bell = bell
	}
	return rings, nil
}

// word64 returns an aligned *uint64 into b at off. The segment base is
// 8-byte aligned (checked in MapRings) and every word offset is a multiple
// of 8 by construction.
func word64(b []byte, off int) *uint64 {
	return (*uint64)(unsafe.Pointer(&b[off]))
}

// TryPush appends one event id; it reports false on a full ring. Single
// producer goroutine only. Zero allocations, and no syscall unless the
// consumer armed the bell to sleep: the first push after that wakes it.
// pythia:hotpath — per-event on the co-located client submit path.
func (r *Ring) TryPush(id int32) bool {
	tail := atomic.LoadUint64(r.tail)
	if tail-atomic.LoadUint64(r.head) > r.mask {
		return false
	}
	r.ids[tail&r.mask] = id
	atomic.StoreUint64(r.tail, tail+1)
	// The tail store comes before this load, and the consumer's arm before
	// its last look at tail; the atomics are sequentially consistent, so
	// either that look sees the event or this load sees the bell.
	if atomic.LoadUint32(r.bell) == 1 {
		ringBell(r.bell)
	}
	return true
}

// Pending reports how many pushed ids the consumer has not decoded yet.
// Either side may call it; the answer is naturally racy.
func (r *Ring) Pending() int {
	d := atomic.LoadUint64(r.tail) - atomic.LoadUint64(r.head)
	if d > r.mask+1 {
		return int(r.mask + 1)
	}
	return int(d)
}

// ConsumeInto decodes the ring's current run of event ids into buf in one
// pass — the server-side batch decode — and advances the consumer cursor.
// It returns the number decoded, or ErrRingCorrupt when the producer cursor
// violates the SPSC invariant (a torn or hostile writer); indices are
// masked, so even a corrupt cursor can never drive an out-of-range read.
// Single consumer goroutine only. Zero allocations.
// pythia:hotpath — per-batch on the shm serving path.
func (r *Ring) ConsumeInto(buf []int32) (int, error) {
	head := atomic.LoadUint64(r.head)
	tail := atomic.LoadUint64(r.tail)
	avail := tail - head
	if avail == 0 {
		return 0, nil
	}
	if avail > r.mask+1 {
		return 0, ErrRingCorrupt
	}
	n := int(avail)
	if n > len(buf) {
		n = len(buf)
	}
	// The run occupies at most two contiguous spans of the slot array.
	lo := int(head & r.mask)
	first := len(r.ids) - lo
	if first > n {
		first = n
	}
	copy(buf[:first], r.ids[lo:lo+first])
	if first < n {
		copy(buf[first:n], r.ids[:n-first])
	}
	r.consumed += uint64(n)
	atomic.StoreUint64(r.head, head+uint64(n))
	return n, nil
}

// Consumed reports the consumer's lifetime decoded-id count (consumer
// goroutine only).
func (r *Ring) Consumed() uint64 { return r.consumed }

// CorruptTailForTest plants a hostile producer cursor, and rings the bell
// as a push would, so tests outside this package can check that consumers
// treat an invariant violation as corruption rather than an index.
func (r *Ring) CorruptTailForTest(v uint64) {
	atomic.StoreUint64(r.tail, v)
	ringBell(r.bell)
}

// PredCap reports how many predictions the slot can publish.
func (r *Ring) PredCap() int { return len(r.pred) / predWords }

// PublishPredictions writes preds into the seqlock'd slot, truncating at
// the slot capacity. Consumer (server) side only; readers concurrently
// retry, they never block the writer.
func (r *Ring) PublishPredictions(preds []predictor.Prediction) {
	if len(preds) > r.PredCap() {
		preds = preds[:r.PredCap()]
	}
	seq := atomic.LoadUint64(r.seq)
	atomic.StoreUint64(r.seq, seq+1) // odd: write in progress
	atomic.StoreUint64(r.cnt, uint64(len(preds)))
	for i := range preds {
		p := &preds[i]
		w := i * predWords
		atomic.StoreUint64(&r.pred[w], uint64(uint32(p.EventID))<<32|uint64(uint32(p.Distance)))
		atomic.StoreUint64(&r.pred[w+1], math.Float64bits(p.Probability))
		atomic.StoreUint64(&r.pred[w+2], math.Float64bits(p.ExpectedNs))
	}
	atomic.StoreUint64(r.seq, seq+2)
}

// readAttempts bounds the seqlock retry loop: a writer mid-publish makes a
// reader retry, and the write is a few hundred nanoseconds, so a handful of
// retries always suffices against a live peer. Against a wedged or hostile
// one the reader gives up and reports no prediction — fail open, not hang.
const readAttempts = 128

// ReadPredictions reads the latest published predictions into buf[:0]
// (reusing its capacity; allocation-free once buf has grown to the slot
// size). ok is false while nothing has been published, when the published
// count is out of bounds, or when every attempt raced a writer.
// pythia:hotpath — per-query on the co-located client predict path.
func (r *Ring) ReadPredictions(buf []predictor.Prediction) ([]predictor.Prediction, bool) {
	for attempt := 0; attempt < readAttempts; attempt++ {
		s1 := atomic.LoadUint64(r.seq)
		if s1 == 0 {
			return buf[:0], false // nothing published yet
		}
		if s1&1 != 0 {
			continue // write in progress
		}
		n := atomic.LoadUint64(r.cnt)
		if n > uint64(r.PredCap()) {
			return buf[:0], false // torn or hostile count
		}
		buf = buf[:0]
		for i := 0; i < int(n); i++ {
			w := i * predWords
			w0 := atomic.LoadUint64(&r.pred[w])
			buf = append(buf, predictor.Prediction{
				EventID:     int32(uint32(w0 >> 32)),
				Distance:    int(int32(uint32(w0))),
				Probability: math.Float64frombits(atomic.LoadUint64(&r.pred[w+1])),
				ExpectedNs:  math.Float64frombits(atomic.LoadUint64(&r.pred[w+2])),
			})
		}
		if atomic.LoadUint64(r.seq) == s1 {
			return buf, true
		}
	}
	return buf[:0], false
}

// NewMemSegment allocates an in-process segment (8-byte aligned, header
// stamped) for tests, fuzzing, and single-process benchmarks — the same
// bytes an mmap'd file would hold, without the file.
func NewMemSegment(g Geometry) ([]byte, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	n := g.SegmentSize()
	words := make([]uint64, (n+7)/8)
	seg := unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), n)
	WriteHeader(seg, g)
	return seg, nil
}

// Bell is a segment's doorbell: one header word that lets an idle
// consumer sleep in the kernel instead of polling its rings. 1 means the
// consumer is asleep, or about to be, and the next push must wake it; any
// other value means it is awake. The word is shared with the producer
// process and so untrusted: a value it scribbles can make Wait return at
// once or sleep its full timeout, never longer, and never faults.
type Bell struct{ word *uint32 }

// SegmentBell returns the doorbell of a segment MapRings accepted.
func SegmentBell(seg []byte) Bell {
	return Bell{(*uint32)(unsafe.Pointer(&seg[bellOff]))}
}

// Arm tells producers the consumer is going to sleep. The consumer must
// look at every ring once more between Arm and Wait: a push that look
// misses finds the bell armed and wakes it.
func (b Bell) Arm() { atomic.StoreUint32(b.word, 1) }

// Disarm stands the bell down when the look after Arm found work, so the
// producers' next pushes cost no wake.
func (b Bell) Disarm() { atomic.StoreUint32(b.word, 0) }

// Armed reports whether the bell still reads 1: no push has rung it since
// Arm. The consumer does not need it; tests use it to see a sleeping pump.
func (b Bell) Armed() bool { return atomic.LoadUint32(b.word) == 1 }

// Wait sleeps until a push rings the bell or timeout passes, and returns at
// once if the bell is not armed. It may also return early (a signal), so
// the caller looks at its rings and decides again. Consumer side only.
func (b Bell) Wait(timeout time.Duration) { bellWait(b.word, timeout) }

// Wake disarms the bell and wakes a consumer sleeping on it whatever the
// word reads; the consumer's own side uses it to stop its pump.
func (b Bell) Wake() {
	atomic.StoreUint32(b.word, 0)
	bellWake(b.word)
}

// CorruptForTest stores v into the bell as a hostile producer would.
func (b Bell) CorruptForTest(v uint32) { atomic.StoreUint32(b.word, v) }

// ringBell wakes an armed consumer. Only the pusher that wins the 1 → 0
// swap makes the syscall, so a burst pays one wake however many rings
// feed the segment.
func ringBell(w *uint32) {
	if atomic.CompareAndSwapUint32(w, 1, 0) {
		bellWake(w)
	}
}

// Park is the producer's backoff when its ring is full — its one caller is
// the client's full-ring wait: call it with an attempt counter that resets
// to zero whenever a push succeeds. The first ParkSpin attempts only yield
// the processor (the consumer is awake and draining, since a full ring is
// a busy one); past that it sleeps, escalating to parkMaxSleep. On Linux
// the sleep has a floor of about a millisecond whatever is asked, because
// the Go runtime's netpoller waits in whole milliseconds: a 20 µs
// time.Sleep returned after a median 1 084 µs (Go 1.24, 2-vCPU Xeon), so
// every step of the ladder sleeps about parkMaxSleep there.
func Park(attempt int) {
	if attempt < ParkSpin {
		runtime.Gosched()
		return
	}
	d := time.Duration(attempt-ParkSpin+1) * parkSleepStep
	if d > parkMaxSleep {
		d = parkMaxSleep
	}
	time.Sleep(d)
}

// ParkSpin is how many empty rounds a waiter on a ring only yields the
// processor before it sleeps, on either side: Park's first rounds, and the
// server pump's before it naps.
const ParkSpin = 64

const (
	parkSleepStep = 5 * time.Microsecond
	parkMaxSleep  = time.Millisecond
)

// Nap sleeps for about d, below a millisecond too, where time.Sleep cannot
// on Linux. There it is a raw nanosleep, which the kernel's timer slack
// (50 µs by default) lengthens: a 10 µs nap lasted a median 68 µs (same
// host as Park's figure). An idle consumer naps between looks at its rings
// before it arms the bell.
func Nap(d time.Duration) { nap(d) }
