package predictor

// refPredictor is the predictor as it was before the frontier engine: every
// hypothesis a progress.Position with its own frame stack, successors from
// progress.Successors, duplicates merged through Position.Key strings, a
// map per step to find the dominant event, and no caching of any kind. It
// shares nothing with the engine but the grammar, the timing model and the
// watchdog's arithmetic, which is what makes the engine-vs-reference
// differential tests (frontier_test.go) a check of the engine and not of
// the code against itself.

import (
	"sort"

	"repro/internal/grammar"
	"repro/internal/model"
	"repro/internal/progress"
)

type refPredictor struct {
	f       *grammar.Frozen
	timing  *model.Timing
	cfg     Config
	cands   []progress.Branch
	pending bool
	stats   Stats
	wd      watchdog
}

func newRef(tr *model.Trace, cfg Config) *refPredictor {
	p := &refPredictor{f: tr.Grammar, timing: tr.Timing, cfg: cfg.withDefaults()}
	p.wd.init(p.cfg)
	return p
}

func (p *refPredictor) StartAtBeginning() {
	p.wd.reset()
	p.cands = p.cands[:0]
	if pos, ok := progress.Start(p.f); ok {
		p.cands = append(p.cands, progress.Branch{Pos: pos, Weight: 1})
		p.pending = true
	}
}

func (p *refPredictor) Observe(eventID int32) {
	if !p.wd.enabled {
		p.track(eventID)
		return
	}
	f0, r0 := p.stats.Followed, p.stats.ReAnchored
	p.track(eventID)
	p.wd.record(p.stats.Followed > f0, p.stats.ReAnchored > r0)
}

func (p *refPredictor) track(eventID int32) {
	p.stats.Observed++
	if p.pending {
		p.pending = false
		var kept []progress.Branch
		for _, c := range p.cands {
			if c.Pos.Terminal(p.f) == eventID {
				kept = append(kept, c)
			}
		}
		if len(kept) > 0 {
			p.stats.Followed++
			p.setCands(kept)
			return
		}
		p.reAnchor(eventID)
		return
	}
	if len(p.cands) == 0 {
		p.reAnchor(eventID)
		return
	}
	var next []progress.Branch
	for _, c := range p.cands {
		for _, s := range progress.Successors(p.f, c.Pos, c.Weight) {
			if s.Pos.Terminal(p.f) == eventID {
				next = append(next, s)
			}
		}
	}
	if len(next) == 0 {
		p.reAnchor(eventID)
		return
	}
	p.stats.Followed++
	p.setCands(next)
}

func (p *refPredictor) reAnchor(eventID int32) {
	occ := progress.Occurrences(p.f, eventID)
	if len(occ) == 0 {
		p.stats.Unknown++
		p.cands = p.cands[:0]
		return
	}
	p.stats.ReAnchored++
	p.setCands(occ)
}

func (p *refPredictor) setCands(branches []progress.Branch) {
	p.cands = refMergeCap(branches, p.cfg.MaxCandidates, true)
}

func (p *refPredictor) Stats() Stats   { return p.stats }
func (p *refPredictor) Tracking() bool { return len(p.cands) > 0 }
func (p *refPredictor) Anchored() bool {
	return len(p.cands) > 0 && p.cands[0].Pos.Anchored()
}
func (p *refPredictor) Candidates() int { return len(p.cands) }
func (p *refPredictor) Confidence() float64 {
	if len(p.cands) == 0 {
		return 0
	}
	return p.cands[0].Weight
}

func (p *refPredictor) PredictAt(distance int) (Prediction, bool) {
	if p.wd.quarantined {
		return Prediction{}, false
	}
	preds, ok := p.simulate(distance, nil)
	if !ok || len(preds) < distance {
		return Prediction{}, false
	}
	return preds[distance-1], true
}

func (p *refPredictor) PredictSequence(n int) []Prediction {
	if p.wd.quarantined {
		return nil
	}
	preds, _ := p.simulate(n, nil)
	return preds
}

func (p *refPredictor) PredictDurationUntil(eventID int32, maxDistance int) (Prediction, bool) {
	if p.wd.quarantined {
		return Prediction{}, false
	}
	var hit Prediction
	found := false
	p.simulate(maxDistance, func(pr Prediction) bool {
		if pr.EventID == eventID {
			hit = pr
			found = true
			return false
		}
		return true
	})
	return hit, found
}

// refSim is one weighted look-ahead branch with its accumulated expected time.
type refSim struct {
	br  progress.Branch
	acc float64
}

// simulate advances a copy of the hypothesis set up to horizon steps,
// producing the dominant prediction of every step. When stop is non-nil it
// is called with each step's dominant prediction and may halt the walk.
//
// The walk cost grows linearly with the horizon (paper Fig. 9): each step
// advances every kept branch by one terminal.
func (p *refPredictor) simulate(horizon int, stop func(Prediction) bool) ([]Prediction, bool) {
	if horizon <= 0 || len(p.cands) == 0 {
		return nil, false
	}
	if len(p.cands) == 1 {
		// Fast path: a single hypothesis usually has exactly one successor
		// per step (always, when anchored at the root) — no branching,
		// merging or aggregation needed. This is the common case on a
		// faithful replay and what keeps per-query cost near the paper's
		// (Fig. 9). If the walk does branch (a partial hypothesis leaving
		// its known context), fall back to the general machinery; the stop
		// callback must therefore be a pure decision function, which all
		// callers' are.
		if preds, ok, done := p.simulateSingle(horizon, stop); done {
			return preds, ok
		}
	}
	var preds []Prediction
	var cur []refSim
	for step := 1; step <= horizon; step++ {
		var nxt []refSim
		switch {
		case step == 1 && p.pending:
			// Fresh start: the candidates already designate the next event.
			for _, c := range p.cands {
				nxt = append(nxt, refSim{br: c})
			}
		case step == 1:
			for _, c := range p.cands {
				for _, b := range progress.Successors(p.f, c.Pos, c.Weight) {
					nxt = append(nxt, refSim{br: b})
				}
			}
		default:
			for _, s := range cur {
				for _, b := range progress.Successors(p.f, s.br.Pos, s.br.Weight) {
					nxt = append(nxt, refSim{br: b, acc: s.acc})
				}
			}
		}
		if len(nxt) == 0 {
			return preds, len(preds) > 0
		}
		if p.timing != nil {
			var refs []grammar.UserRef
			for i := range nxt {
				refs = nxt[i].br.Pos.AppendRefs(refs[:0])
				nxt[i].acc += p.timing.MeanForPath(refs, nxt[i].br.Pos.Terminal(p.f))
			}
		}
		cur = refMergeCapSim(nxt, p.cfg.MaxLookahead)
		pr := refDominant(p.f, cur, step)
		preds = append(preds, pr)
		if stop != nil && !stop(pr) {
			return preds, true
		}
	}
	return preds, true
}

// simulateSingle is the branch-free simulate: one hypothesis advanced one
// terminal at a time. done is false when the walk branched and the caller
// must redo the query with the general machinery.
func (p *refPredictor) simulateSingle(horizon int, stop func(Prediction) bool) (preds []Prediction, ok, done bool) {
	pos := p.cands[0].Pos
	var acc float64
	var refs []grammar.UserRef
	preds = make([]Prediction, 0, horizon)
	for step := 1; step <= horizon; step++ {
		if step == 1 && p.pending {
			// The candidate already designates the next event.
		} else {
			brs := progress.Successors(p.f, pos, 1)
			if len(brs) == 0 {
				return preds, len(preds) > 0, true
			}
			if len(brs) > 1 {
				// Partial hypothesis left its known context: branch.
				return nil, false, false
			}
			pos = brs[0].Pos
		}
		ev := pos.Terminal(p.f)
		if p.timing != nil {
			refs = pos.AppendRefs(refs[:0])
			acc += p.timing.MeanForPath(refs, ev)
		}
		pr := Prediction{EventID: ev, Probability: 1, Distance: step, ExpectedNs: acc}
		preds = append(preds, pr)
		if stop != nil && !stop(pr) {
			return preds, true, true
		}
	}
	return preds, true, true
}

// refDominant aggregates branch weights per event id and returns the heaviest
// event of the step, with its probability and weighted expected time.
func refDominant(f *grammar.Frozen, branches []refSim, step int) Prediction {
	type agg struct {
		w   float64
		acc float64
	}
	byEvent := make(map[int32]agg, 8)
	var total float64
	for _, s := range branches {
		ev := s.br.Pos.Terminal(f)
		a := byEvent[ev]
		a.w += s.br.Weight
		a.acc += s.br.Weight * s.acc
		byEvent[ev] = a
		total += s.br.Weight
	}
	best := Prediction{EventID: -1, Distance: step}
	bestW := -1.0
	for ev, a := range byEvent {
		if a.w > bestW || (a.w == bestW && ev < best.EventID) {
			bestW = a.w
			best.EventID = ev
			if a.w > 0 {
				best.ExpectedNs = a.acc / a.w
			}
		}
	}
	if total > 0 {
		best.Probability = bestW / total
	}
	return best
}

// refMergeCap merges branches with identical positions, sorts by descending
// weight and keeps at most max, optionally renormalising weights to sum
// to 1.
func refMergeCap(branches []progress.Branch, max int, renorm bool) []progress.Branch {
	byKey := make(map[string]int, len(branches))
	out := make([]progress.Branch, 0, len(branches))
	for _, b := range branches {
		k := b.Pos.Key()
		if i, ok := byKey[k]; ok {
			out[i].Weight += b.Weight
			continue
		}
		byKey[k] = len(out)
		out = append(out, b)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Weight > out[j].Weight })
	if len(out) > max {
		out = out[:max]
	}
	if renorm {
		var total float64
		for _, b := range out {
			total += b.Weight
		}
		if total > 0 {
			for i := range out {
				out[i].Weight /= total
			}
		}
	}
	return out
}

// refMergeCapSim is refMergeCap for look-ahead branches, merging accumulated
// durations by weighted average.
func refMergeCapSim(branches []refSim, max int) []refSim {
	byKey := make(map[string]int, len(branches))
	out := make([]refSim, 0, len(branches))
	for _, s := range branches {
		k := s.br.Pos.Key()
		if i, ok := byKey[k]; ok {
			w1, w2 := out[i].br.Weight, s.br.Weight
			if w1+w2 > 0 {
				out[i].acc = (out[i].acc*w1 + s.acc*w2) / (w1 + w2)
			}
			out[i].br.Weight += w2
			continue
		}
		byKey[k] = len(out)
		out = append(out, s)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].br.Weight > out[j].br.Weight })
	if len(out) > max {
		out = out[:max]
	}
	return out
}

func (p *refPredictor) Reset() {
	p.wd.reset()
	p.cands = p.cands[:0]
	p.pending = false
	p.stats = Stats{}
}

// PredictDistribution returns the full probability distribution over the
// event at the given distance, most likely first. Runtime systems that hedge
// across several possible futures (e.g. pre-posting receives for every
// likely sender) use this instead of PredictAt.
func (p *refPredictor) PredictDistribution(distance int) []Alternative {
	if distance <= 0 || len(p.cands) == 0 {
		return nil
	}
	cur := p.seedSim()
	for step := 1; step <= distance; step++ {
		var nxt []refSim
		if step == 1 && p.pending {
			nxt = cur
		} else {
			for _, s := range cur {
				for _, b := range progress.Successors(p.f, s.br.Pos, s.br.Weight) {
					nxt = append(nxt, refSim{br: b})
				}
			}
		}
		if len(nxt) == 0 {
			return nil
		}
		cur = refMergeCapSim(nxt, p.cfg.MaxLookahead)
	}
	byEvent := make(map[int32]float64, 8)
	var total float64
	for _, s := range cur {
		byEvent[s.br.Pos.Terminal(p.f)] += s.br.Weight
		total += s.br.Weight
	}
	out := make([]Alternative, 0, len(byEvent))
	for ev, w := range byEvent {
		prob := 0.0
		if total > 0 {
			prob = w / total
		}
		out = append(out, Alternative{EventID: ev, Probability: prob})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Probability != out[j].Probability {
			return out[i].Probability > out[j].Probability
		}
		return out[i].EventID < out[j].EventID
	})
	return out
}

// seedSim converts the live candidate set into simulation branches. When a
// fresh start is pending, candidates already designate the next event.
func (p *refPredictor) seedSim() []refSim {
	out := make([]refSim, 0, len(p.cands))
	for _, c := range p.cands {
		out = append(out, refSim{br: c})
	}
	return out
}

// ExpectedPath simulates forward and records, per step, the dominant
// branch's position.
func (p *refPredictor) ExpectedPath(maxDistance int) []PathStep {
	if maxDistance <= 0 || len(p.cands) == 0 {
		return nil
	}
	cur := p.seedSim()
	var out []PathStep
	for step := 1; step <= maxDistance; step++ {
		var nxt []refSim
		if step == 1 && p.pending {
			nxt = cur
		} else {
			for _, s := range cur {
				for _, b := range progress.Successors(p.f, s.br.Pos, s.br.Weight) {
					nxt = append(nxt, refSim{br: b})
				}
			}
		}
		if len(nxt) == 0 {
			return out
		}
		cur = refMergeCapSim(nxt, p.cfg.MaxLookahead)
		best := cur[0]
		out = append(out, PathStep{
			Distance: step,
			EventID:  best.br.Pos.Terminal(p.f),
			Ref:      best.br.Pos.Ref(),
		})
	}
	return out
}
