package fixture

// Leading is excused by an allow in the comment block above the finding;
// the justification may run over several lines.
func Leading() {
	// pythia:allow error-hygiene — fixture: a leading allow sits anywhere
	// in the block that ends on the line above the finding.
	_ = fail()
}

// Trailing is excused by an allow on the finding's own line.
func Trailing() {
	_ = fail() // pythia:allow error-hygiene — fixture: a trailing allow
}
