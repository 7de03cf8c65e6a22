// Package wire is the fixture's miniature of the daemon's frame codec:
// message structs, each with the field-walk method the codec drives, and a
// decoder that fills one in through a pointer.
package wire

type codec struct{ p []byte }

// Query is a request frame: a session and a count the client chose.
type Query struct{ Session, Count uint32 }

func (m *Query) walk(c *codec) {}

// Setup offers a ring geometry the client chose.
type Setup struct{ Rings, Slots uint32 }

func (m *Setup) walk(c *codec) {}

// Decode fills m in from a frame payload.
func Decode(p []byte, m interface{ walk(*codec) }) error {
	m.walk(&codec{p: p})
	return nil
}
