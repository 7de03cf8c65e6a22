// Package predictor implements PYTHIA-PREDICT (paper sections II-B and
// II-C): it follows the progress of a running application through the
// grammar of a reference execution and answers queries about the future —
// which event will occur a given number of events from now, with what
// probability, and after how long.
//
// The predictor maintains a set of weighted hypotheses (progress sequences).
// While the execution matches the reference trace exactly the set contains a
// single root-anchored position and tracking is deterministic and cheap.
// After an unexpected event the predictor re-anchors on all grammar
// occurrences of the last seen event and lets subsequent observations narrow
// the set (tolerance to unexpected events, section II-B2).
//
// Queries walk the hypothesis set forward (engine.go): a lone hypothesis
// through a window of future events kept across observations, anything
// else through a frontier walk memoised until the next observation. The
// allocating reference both are held to lives in reference_test.go.
package predictor

import (
	"repro/internal/grammar"
	"repro/internal/model"
	"repro/internal/progress"
)

// Config tunes the predictor.
type Config struct {
	// MaxCandidates caps the number of simultaneous hypotheses kept while
	// tracking observations. Zero selects the default (64).
	MaxCandidates int
	// MaxLookahead caps the number of branches kept at each step of a
	// prediction simulation. Zero selects the default (256).
	MaxLookahead int
	// WatchdogWindow is the divergence watchdog's observation window: the
	// number of recent observations over which the prediction hit-rate is
	// measured. Zero selects the default (128); negative disables the
	// watchdog entirely.
	WatchdogWindow int
	// WatchdogFloor is the minimum windowed hit-rate; strictly below it
	// the predictor self-quarantines (Predict* return ok=false) until the
	// rate recovers. Zero selects the default (0.35).
	WatchdogFloor float64
	// WatchdogRecover is the hit-rate at which a quarantined predictor
	// resumes answering. Zero selects the default (WatchdogFloor + 0.15,
	// capped at 1): the hysteresis gap keeps the state from flapping.
	WatchdogRecover float64
}

const (
	defaultMaxCandidates = 64
	defaultMaxLookahead  = 256
)

func (c Config) withDefaults() Config {
	if c.MaxCandidates <= 0 {
		c.MaxCandidates = defaultMaxCandidates
	}
	if c.MaxLookahead <= 0 {
		c.MaxLookahead = defaultMaxLookahead
	}
	if c.WatchdogWindow == 0 {
		c.WatchdogWindow = defaultWatchdogWindow
	}
	if c.WatchdogFloor <= 0 {
		c.WatchdogFloor = defaultWatchdogFloor
	}
	if c.WatchdogFloor > 1 {
		c.WatchdogFloor = 1
	}
	if c.WatchdogRecover <= 0 {
		c.WatchdogRecover = c.WatchdogFloor + 0.15
	}
	if c.WatchdogRecover > 1 {
		c.WatchdogRecover = 1
	}
	if c.WatchdogRecover < c.WatchdogFloor {
		c.WatchdogRecover = c.WatchdogFloor
	}
	return c
}

// Stats counts tracking outcomes since the predictor was created.
type Stats struct {
	// Observed is the total number of events submitted.
	Observed int64
	// Followed counts observations that matched a tracked hypothesis.
	Followed int64
	// ReAnchored counts observations that matched no hypothesis and forced
	// re-anchoring on the event's grammar occurrences.
	ReAnchored int64
	// Unknown counts observations of events absent from the reference
	// trace, after which the oracle has no information until re-anchored.
	Unknown int64
}

// Predictor tracks one thread of execution against one reference trace.
// It is not safe for concurrent use; runtimes keep one per thread.
type Predictor struct {
	f      *grammar.Frozen
	timing *model.Timing
	cfg    Config
	// cands is the tracked hypothesis set, heaviest first, and spare the
	// buffer the next step of either cands or the look-ahead is built in;
	// a completed step swaps its result in (see engine.go).
	cands, spare *progress.Frontier
	// pending marks that the candidate set designates the *next* event to
	// be observed rather than the last observed one (after
	// StartAtBeginning, which leaves a single hypothesis).
	pending bool
	stats   Stats
	// merger is the scratch of every merge of cands, spare or look.at.
	merger progress.Merger
	// win is the look-ahead of a lone hypothesis and look the frontier
	// walk of every other (see engine.go).
	win  window
	look lookahead
	// refsBuf is the reusable path buffer for timing lookups.
	refsBuf []grammar.UserRef
	// wd is the divergence watchdog (see watchdog.go).
	wd watchdog
	// bufs backs cands, spare and look.at.
	bufs [3]progress.Frontier
}

// New returns a predictor for the reference trace. The candidate set starts
// empty: either call StartAtBeginning when the run is known to start where
// the reference trace starts, or just Observe events and let the predictor
// anchor itself (which tolerates attaching mid-run, as the paper's
// evaluation does).
func New(tr *model.Trace, cfg Config) *Predictor {
	p := &Predictor{f: tr.Grammar, timing: tr.Timing, cfg: cfg.withDefaults()}
	p.cands, p.spare, p.look.at = &p.bufs[0], &p.bufs[1], &p.bufs[2]
	p.wd.init(p.cfg)
	return p
}

// StartAtBeginning seeds tracking at the first event of the reference trace.
// The next Observe call is expected to report that event.
func (p *Predictor) StartAtBeginning() {
	p.invalidate()
	p.wd.reset()
	if p.cands.SetStart(p.f) {
		p.pending = true
	}
}

// Observe submits the next event of the current execution and updates the
// hypothesis set and the divergence watchdog. Tracking continues even while
// the watchdog holds predictions back — that is what lets a re-converging
// execution lift its own quarantine.
// pythia:hotpath — one call per submitted event in predict mode.
func (p *Predictor) Observe(eventID int32) {
	if !p.wd.enabled {
		p.track(eventID)
		return
	}
	f0, r0 := p.stats.Followed, p.stats.ReAnchored
	p.track(eventID)
	p.wd.record(p.stats.Followed > f0, p.stats.ReAnchored > r0)
}

// track is Observe without the watchdog accounting: it classifies the event
// as followed, re-anchored or unknown and updates the hypothesis set.
// pythia:hotpath — one call per submitted event in predict mode.
func (p *Predictor) track(eventID int32) {
	p.stats.Observed++
	p.look.valid = false
	if p.pending {
		// The lone candidate designates the next event directly: nothing
		// to merge or renormalise, and it is the window's first step.
		p.pending = false
		if p.cands.Terminal(p.f, 0) == eventID {
			p.stats.Followed++
			p.win.slide()
			return
		}
		p.reAnchor(eventID)
		return
	}
	if p.cands.Len() == 0 {
		p.reAnchor(eventID)
		return
	}
	if p.cands.Len() == 1 && p.observeSingle(eventID) {
		return
	}
	p.spare.Step(p.f, p.cands)
	p.spare.KeepEvent(p.f, eventID)
	p.cands, p.spare = p.spare, p.cands
	p.follow(eventID)
}

// follow installs the hypotheses that matched eventID — merged, capped and
// renormalised — or re-anchors when none did.
func (p *Predictor) follow(eventID int32) {
	if p.cands.Len() == 0 {
		p.reAnchor(eventID)
		return
	}
	p.stats.Followed++
	p.cands.MergeCap(&p.merger, p.cfg.MaxCandidates, true)
	p.invalidate()
}

// observeSingle advances the lone hypothesis through its unique successor,
// the tracking fast path: the candidate set stays a single hypothesis of
// weight 1 and the window slides instead of being rebuilt. It reports false
// when the advance would branch, leaving the predictor untouched so the
// caller falls through to the general step.
// pythia:hotpath — zero allocations per observation in steady state.
func (p *Predictor) observeSingle(eventID int32) bool {
	ev, res := p.cands.AdvanceLone(p.f, p.spare)
	if res == progress.AdvanceBranch {
		return false
	}
	if res == progress.AdvanceEnd || ev != eventID {
		// No successor, the outcome of an empty general step; or one that
		// is not the event, and a branch-free walk has no other.
		p.reAnchor(eventID)
		return true
	}
	p.stats.Followed++
	p.win.slide()
	return true
}

// invalidate drops the look-ahead after a hypothesis-set change outside the
// fast paths (re-anchor, general step, Reset, StartAtBeginning).
func (p *Predictor) invalidate() {
	p.win.valid = false
	p.look.valid = false
}

// reAnchor rebuilds the hypothesis set from the grammar occurrences of
// eventID.
func (p *Predictor) reAnchor(eventID int32) {
	p.invalidate()
	if !p.cands.SetOccurrences(p.f, eventID) {
		p.stats.Unknown++
		return
	}
	p.stats.ReAnchored++
	p.cands.MergeCap(&p.merger, p.cfg.MaxCandidates, true)
}

// Stats returns tracking counters.
func (p *Predictor) Stats() Stats { return p.stats }

// Tracking reports whether the predictor currently holds at least one
// hypothesis.
func (p *Predictor) Tracking() bool { return p.cands.Len() > 0 }

// Anchored reports whether the dominant hypothesis is anchored at the
// grammar root, i.e. the position in the reference trace is fully known.
func (p *Predictor) Anchored() bool {
	return p.cands.Len() > 0 && p.cands.Anchored(0)
}

// Candidates returns the current number of hypotheses.
func (p *Predictor) Candidates() int { return p.cands.Len() }

// Confidence returns the weight of the dominant hypothesis (0 when lost).
func (p *Predictor) Confidence() float64 {
	if p.cands.Len() == 0 {
		return 0
	}
	return p.cands.Weight(0)
}

// Prediction is one predicted future event.
type Prediction struct {
	// EventID is the predicted event.
	EventID int32
	// Probability is the estimated probability of the prediction, from
	// occurrence counting in the reference trace.
	Probability float64
	// Distance is the number of events from now (1 = next event).
	Distance int
	// ExpectedNs is the expected elapsed time from the last observed event
	// until this one, according to the timing model (0 when the trace
	// carries no timing).
	ExpectedNs float64
}

// PredictAt predicts the event that will occur distance events from now
// (distance >= 1; 1 means the next event). ok is false when the predictor
// has no hypothesis or every hypothesis ends before the horizon.
// pythia:hotpath — the paper's per-query budget is ~0.05-2 µs (Fig. 9).
func (p *Predictor) PredictAt(distance int) (Prediction, bool) {
	if p.wd.quarantined || distance < 1 {
		return Prediction{}, false
	}
	got, win := p.ahead(distance)
	if got < distance {
		return Prediction{}, false
	}
	var acc float64
	if win {
		acc = p.win.timeTo(distance - 1)
	}
	return p.stepAt(win, distance, &acc), true
}

// PredictSequence predicts the next n events, returning one Prediction per
// step (step i has Distance i+1). The slice may be shorter than n if every
// hypothesis reaches the end of the reference trace.
func (p *Predictor) PredictSequence(n int) []Prediction {
	if p.wd.quarantined || n < 1 {
		return nil
	}
	got, win := p.ahead(n)
	got = min(got, n)
	if got == 0 && !win {
		return nil
	}
	out := make([]Prediction, got)
	var acc float64
	for i := range out {
		out[i] = p.stepAt(win, i+1, &acc)
	}
	return out
}

// PredictDurationUntil predicts the elapsed time from now until the next
// occurrence of eventID, searching at most maxDistance events ahead.
// ok is false when the event is not predicted within the horizon.
func (p *Predictor) PredictDurationUntil(eventID int32, maxDistance int) (Prediction, bool) {
	if p.wd.quarantined || maxDistance < 1 {
		return Prediction{}, false
	}
	// Walk only as far as the first hit.
	var acc float64
	for d := 1; d <= maxDistance; d++ {
		got, win := p.ahead(d)
		if got < d {
			break
		}
		if pr := p.stepAt(win, d, &acc); pr.EventID == eventID {
			return pr, true
		}
	}
	return Prediction{}, false
}

// Reset clears all hypotheses and counters; the predictor behaves as freshly
// created. Runtimes use it at phase boundaries where the past context is
// known to be irrelevant (e.g. after a checkpoint restore).
func (p *Predictor) Reset() {
	p.invalidate()
	p.wd.reset()
	p.cands.Clear()
	p.pending = false
	p.stats = Stats{}
}
