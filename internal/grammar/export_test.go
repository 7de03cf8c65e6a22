package grammar

// NewReference returns an empty grammar with the confirming fast path off:
// every event goes through the reduction. The differential tests hold the
// fast path to it.
func NewReference() *Grammar {
	g := New()
	g.cf.off = true
	return g
}

// ConfirmOff switches the fast path off on g, which must be empty — for
// tests that reach a grammar through its owner, such as a recorder.
func ConfirmOff(g *Grammar) {
	if g.eventCount != 0 {
		panic("grammar: ConfirmOff on a grammar that has events")
	}
	g.cf.off = true
}

// ConfirmedEvents returns how many events of g the fast path counted in
// completed repetitions.
func ConfirmedEvents(g *Grammar) int64 { return g.cf.confirmed }
