// Package faultinject provides deterministic, seed-driven fault schedules
// for chaos-testing the oracle. Two fault families mirror the two ways a
// deployment can hurt Pythia: event-stream faults (dropped, duplicated, or
// substituted events and skewed clocks — an instrumented runtime
// misbehaving) and byte-level trace-file faults (corruption and truncation
// — a trace file damaged between record and predict). Every schedule is a
// pure function of an explicit seed, so a failing chaos run is replayable
// from the seed in its log line.
package faultinject

import "math/rand"

// Plan describes one deterministic event-stream fault schedule. Rates are
// independent per-event probabilities in [0, 1], applied in the order
// drop, duplicate, substitute.
type Plan struct {
	// Seed drives the schedule; equal plans produce equal fault sequences.
	Seed int64
	// Drop is the probability an event is silently swallowed.
	Drop float64
	// Duplicate is the probability an event is delivered twice.
	Duplicate float64
	// Substitute is the probability an event is replaced by another id.
	Substitute float64
	// Alphabet is the candidate pool for substituted events. When empty,
	// substitution invents ids far outside any interned range, modelling an
	// instrumentation layer emitting garbage.
	Alphabet []int32
	// MaxSkewNs bounds the absolute per-event clock perturbation.
	MaxSkewNs int64
}

// Injector applies a Plan to an event stream.
type Injector struct {
	plan Plan
	rng  *rand.Rand
}

// New returns an Injector for the plan.
func New(plan Plan) *Injector {
	return &Injector{plan: plan, rng: rand.New(rand.NewSource(plan.Seed))}
}

// Perturb maps one source event to the faulted events actually delivered:
// nil (dropped), the event itself, the event twice, or a substitute.
func (in *Injector) Perturb(id int32) []int32 {
	p := &in.plan
	if p.Drop > 0 && in.rng.Float64() < p.Drop {
		return nil
	}
	if p.Substitute > 0 && in.rng.Float64() < p.Substitute {
		id = in.substitute()
	}
	if p.Duplicate > 0 && in.rng.Float64() < p.Duplicate {
		return []int32{id, id}
	}
	return []int32{id}
}

// substitute picks a replacement event id.
func (in *Injector) substitute() int32 {
	if len(in.plan.Alphabet) > 0 {
		return in.plan.Alphabet[in.rng.Intn(len(in.plan.Alphabet))]
	}
	// An id no real registry will have interned.
	return 1 << 28 << uint(in.rng.Intn(3))
}

// Skew perturbs a timestamp by a uniform amount in [-MaxSkewNs, MaxSkewNs].
func (in *Injector) Skew(now int64) int64 {
	if in.plan.MaxSkewNs <= 0 {
		return now
	}
	return now + in.rng.Int63n(2*in.plan.MaxSkewNs+1) - in.plan.MaxSkewNs
}

// PanicClock returns a clock that returns monotonically increasing
// timestamps for n calls and panics on every call after that — a
// deterministic internal fault for exercising panic containment end to
// end (the clock runs inside the oracle's Submit path).
func PanicClock(n int) func() int64 {
	var calls, now int64
	return func() int64 {
		calls++
		if calls > int64(n) {
			// pythia:allow panic-policy — the panic is the injected fault; a
			// "pythia: internal" prefix would make contained-fault causes
			// indistinguishable from real oracle bugs in the chaos tests.
			panic("faultinject: scheduled clock fault")
		}
		now += 7
		return now
	}
}

// FlipBytes returns a copy of data with n seed-chosen bytes replaced by
// seed-chosen values (each flip guaranteed to change the byte).
func FlipBytes(data []byte, seed int64, n int) []byte {
	out := append([]byte(nil), data...)
	if len(out) == 0 {
		return out
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		pos := rng.Intn(len(out))
		out[pos] ^= byte(1 + rng.Intn(255))
	}
	return out
}

// TruncateBytes returns a seed-chosen strict prefix of data.
func TruncateBytes(data []byte, seed int64) []byte {
	if len(data) == 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	return append([]byte(nil), data[:rng.Intn(len(data))]...)
}
