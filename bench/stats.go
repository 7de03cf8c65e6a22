package main

import (
	"math"
	"slices"
	"sort"

	"repro/pythia"
)

// quantile returns the p-quantile (0 < p < 1) of sorted values by the
// method Python's statistics.quantiles uses by default ("exclusive"): the
// position is p*(n+1), interpolated linearly (and clamped to the ends, where
// Python extrapolates: the two differ only below three values). The A/A
// tool and the acceptance check therefore agree on what a quartile is.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := p*float64(n+1) - 1 // zero-based
	if pos <= 0 {
		return sorted[0]
	}
	if pos >= float64(n-1) {
		return sorted[n-1]
	}
	lo := int(pos)
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// quartiles sorts a copy of xs and returns q1, the median and q3.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.25), quantile(s, 0.5), quantile(s, 0.75)
}

// median is the quartiles' middle value.
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// lapMark is one lap boundary inside a slice: the clock reading and how
// many latency samples the run held at that moment.
type lapMark struct {
	at    int64
	waits int
}

// lapClock collects the lap marks of whatever is being timed — a set-up, a
// slice — its start first.
type lapClock struct{ marks []lapMark }

// mark notes a lap boundary now, with the latency samples held so far.
func (c *lapClock) mark(waits int) {
	c.marks = append(c.marks, lapMark{at: nowNs(), waits: waits})
}

// restart forgets the marks and notes the start of the next thing timed.
func (c *lapClock) restart(waits int) {
	c.marks = c.marks[:0]
	c.mark(waits)
}

// quietQuantile is the quantile of a lap's repeats that stands for the lap.
// The reference host is a shared one: for stretches of one to fifteen
// milliseconds a neighbour takes part of the core and the same code runs at
// little more than half its speed, and over tens of seconds the share of such
// stretches drifts between a tenth and more than nine tenths of the time.
// Whatever averages over a slice follows that share and not the program; the
// fast twentieth of a lap's repeats ran undisturbed as long as the host was
// quiet for a twentieth of the run, which it has been in every run watched.
const quietQuantile = 0.05

// lapRec is one lap as run: what it took, and the midmean and number of
// the latency samples that fell into it (both in ns; no samples, no wait).
type lapRec struct {
	ns, wait float32
	waits    int32
}

// lapTable holds, for one kind of slice, every lap of every untraced slice.
// Slices of a kind do equal work lap for lap, so lap j of one slice repeats
// lap j of every other: the table is reduced along the repeats (a low
// quantile, which drops the repeats a neighbour slowed) and then summed
// along the laps.
type lapTable struct {
	laps   int      // laps in one slice of this kind
	slices int      // slices recorded
	events float64  // events one slice submits
	recs   []lapRec // slice-major: lap j of slice s at [s*laps+j]
}

// add records one slice from its lap marks (the first mark is the start of
// the slice) and the run's latency samples. It reports false when the slice
// did not have the laps its kind's first slice had.
func (lt *lapTable) add(marks []lapMark, waits []int32, events int64) bool {
	n := len(marks) - 1
	if lt.slices == 0 {
		lt.laps, lt.events = n, float64(events)
	}
	if n < 1 || n != lt.laps {
		return false
	}
	var seg []int32
	for j := 1; j <= n; j++ {
		from, to := marks[j-1], marks[j]
		r := lapRec{ns: float32(to.at - from.at)}
		if seg = append(seg[:0], waits[min(from.waits, len(waits)):min(to.waits, len(waits))]...); len(seg) > 0 {
			slices.Sort(seg)
			r.wait, r.waits = float32(midmean(seg)), int32(len(seg))
		}
		lt.recs = append(lt.recs, r)
	}
	lt.slices++
	return true
}

// quiet reduces the table with every lap at the q-quantile of its repeats:
// what one slice then takes, and the sum over the laps of the lap's latency
// (the q-quantile of its repeats' midmeans) weighted by waitN, the samples
// the lap holds.
func (lt *lapTable) quiet(q float64) (ns, waitSum, waitN float64) {
	col := make([]float64, 0, lt.slices)
	for j := 0; j < lt.laps; j++ {
		col = col[:0]
		for s := 0; s < lt.slices; s++ {
			col = append(col, float64(lt.recs[s*lt.laps+j].ns))
		}
		sort.Float64s(col)
		ns += quantile(col, q)

		col = col[:0]
		var samples float64
		for s := 0; s < lt.slices; s++ {
			if r := lt.recs[s*lt.laps+j]; r.waits > 0 {
				col = append(col, float64(r.wait))
				samples += float64(r.waits)
			}
		}
		if len(col) > 0 {
			sort.Float64s(col)
			n := samples / float64(len(col))
			waitSum, waitN = waitSum+n*quantile(col, q), waitN+n
		}
	}
	return ns, waitSum, waitN
}

// quietCycle is one cycle through the kinds of slice with every lap at the
// q-quantile of its repeats: the events it submits per second, and the
// latency in nanoseconds of its mean lap (0 when no lap held a sample).
func quietCycle(tables []lapTable, q float64) (eventsPerS, waitNs float64) {
	var events, ns, waitSum, waitN float64
	for i := range tables {
		n, ws, wn := tables[i].quiet(q)
		events, ns, waitSum, waitN = events+tables[i].events, ns+n, waitSum+ws, waitN+wn
	}
	if waitN > 0 {
		waitNs = waitSum / waitN
	}
	return events / (ns / 1e9), waitNs
}

// samples collects integer-nanosecond latencies of one kind of call. The
// buffer is allocated once, so the timed phase never grows it; past the cap
// further samples are only counted (the kept prefix is already far beyond
// what the percentiles need).
type samples struct {
	ns      []int32
	dropped int64
}

func newSamples(capacity int) *samples { return &samples{ns: make([]int32, 0, capacity)} }

func (s *samples) add(d int64) {
	if len(s.ns) == cap(s.ns) {
		s.dropped++
		return
	}
	if d > math.MaxInt32 {
		d = math.MaxInt32
	}
	s.ns = append(s.ns, int32(d))
}

// sorted returns the kept samples in ascending order (sorting in place).
func (s *samples) sorted() []int32 {
	slices.Sort(s.ns)
	return s.ns
}

// groupedMedian is the median of integer-valued samples treated as bins of
// width 1 centred on each value, interpolated inside the median's bin. A
// clock that ticks in whole nanoseconds gives sub-microsecond calls only a
// handful of distinct durations; the plain median would then read the same
// on every run and hide any change smaller than a tick.
func groupedMedian(sorted []int32) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	v := sorted[n/2]
	lo := sort.Search(n, func(i int) bool { return sorted[i] >= v })
	hi := sort.Search(n, func(i int) bool { return sorted[i] > v })
	return float64(v) - 0.5 + (float64(n)/2-float64(lo))/float64(hi-lo)
}

// midmean is the mean of the middle half of sorted samples (the
// interquartile mean). Like the median it ignores the tails; unlike the
// median it moves smoothly when the samples cluster in several modes — a
// burst of four queries costs 1.2, 1.6 or 2.2 µs depending on the loop it
// falls in, and the median of such a mixture jumps from one mode to the
// next when the host shifts a few percent of the samples.
func midmean(sorted []int32) float64 {
	mid := sorted[len(sorted)/4 : len(sorted)-len(sorted)/4]
	if len(mid) == 0 {
		return 0
	}
	var sum int64
	for _, v := range mid {
		sum += int64(v)
	}
	return float64(sum) / float64(len(mid))
}

// percentile is the nearest-rank p-quantile of sorted samples.
func percentile(sorted []int32, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return float64(sorted[int(p*float64(len(sorted)-1))])
}

// tailLadder are the percentiles a tail latency may be reported at.
var tailLadder = []float64{0.9999, 0.999, 0.99, 0.9, 0.5}

// tailPercentile picks the highest ladder percentile that still has at
// least ten samples beyond it, and returns it with its value.
func tailPercentile(sorted []int32) (p float64, v float64) {
	n := len(sorted)
	if n == 0 {
		return 0.5, 0
	}
	for _, p = range tailLadder {
		if float64(n)*(1-p) >= 10 {
			break
		}
	}
	return p, percentile(sorted, p)
}

// withinPct is the share of samples at or under limit, in percent; missed
// counts operations that never produced a sample (failed or refused) and
// therefore miss any limit.
func withinPct(sorted []int32, limit int32, missed int64) float64 {
	total := int64(len(sorted)) + missed
	if total == 0 {
		return 0
	}
	ok := sort.Search(len(sorted), func(i int) bool { return sorted[i] > limit })
	return 100 * float64(ok) / float64(total)
}

// digest is an FNV-1a hash over every prediction a replay returns: the
// event, the bit pattern of the expected time, and whether the oracle
// answered. Two replays agree bit for bit exactly when their digests do.
type digest uint64

const (
	fnvOffset digest = 14695981039346656037
	fnvPrime  digest = 1099511628211
)

func (d *digest) word(w uint64) {
	h := *d
	for i := 0; i < 8; i++ {
		h = (h ^ digest(byte(w>>(8*i)))) * fnvPrime
	}
	*d = h
}

func (d *digest) add(pr pythia.Prediction, ok bool) {
	b := uint64(0)
	if ok {
		b = 1
	}
	d.word(uint64(uint32(pr.EventID))<<1 | b)
	d.word(math.Float64bits(pr.ExpectedNs))
}
