package fixture

import "errors"

func fail() error { return errors.New("fixture") }

// Unused excuses a line with nothing to excuse: the allow is reported.
func Unused() int {
	// pythia:allow error-hygiene — nothing on the next line drops an error
	n := 1
	return n
}

// Unknown names an analyzer that does not exist: the allow is reported and
// hides nothing.
func Unknown() {
	// pythia:allow error-hygeine — misspelt analyzer name
	_ = fail()
}

// Reasonless gives no reason: the allow is reported and hides nothing.
func Reasonless() {
	_ = fail() // pythia:allow error-hygiene
}

// TrailingOnly shows that a trailing allow excuses its own line and not the
// one below it.
func TrailingOnly() {
	_ = fail() // pythia:allow error-hygiene — fixture: this line only
	_ = fail()
}
