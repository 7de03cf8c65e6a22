package predictor

import (
	"sort"

	"repro/internal/grammar"
)

// Alternative is one entry of a predicted event distribution.
type Alternative struct {
	EventID     int32
	Probability float64
}

// PredictDistribution returns the full probability distribution over the
// event at the given distance, most likely first. Runtime systems that hedge
// across several possible futures (e.g. pre-posting receives for every
// likely sender) use this instead of PredictAt.
func (p *Predictor) PredictDistribution(distance int) []Alternative {
	if distance <= 0 || p.cands.Len() == 0 {
		return nil
	}
	// The frontier at exactly this step is wanted: a memo already past it
	// starts over.
	if len(p.look.steps) > distance {
		p.startWalk()
	}
	if p.walkTo(distance) < distance {
		return nil
	}
	total := p.sumByEvent()
	out := make([]Alternative, len(p.look.sums))
	for i, s := range p.look.sums {
		out[i].EventID = s.ev
		if total > 0 {
			out[i].Probability = s.w / total
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Probability != out[j].Probability {
			return out[i].Probability > out[j].Probability
		}
		return out[i].EventID < out[j].EventID
	})
	return out
}

// PathStep is one step of ExpectedPath: the dominant position's grammar
// reference and event.
type PathStep struct {
	Distance int
	EventID  int32
	Ref      grammar.UserRef
}

// ExpectedPath returns the most likely next terminal run positions as far as
// maxDistance, for diagnostics: per step, the heaviest branch's position.
func (p *Predictor) ExpectedPath(maxDistance int) []PathStep {
	if maxDistance <= 0 || p.cands.Len() == 0 {
		return nil
	}
	// The frontier at every step is wanted: walk afresh from the first.
	p.startWalk()
	var out []PathStep
	for step := 1; step <= maxDistance && p.walkTo(step) == step; step++ {
		out = append(out, PathStep{
			Distance: step,
			EventID:  p.look.at.Terminal(p.f, 0),
			Ref:      p.look.at.Ref(0),
		})
	}
	return out
}
