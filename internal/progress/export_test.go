package progress

// View returns hypothesis i as a Position aliasing the arena, valid until
// the frontier is next written.
func (fr *Frontier) View(i int) Position { return Position{frames: fr.stack(i)} }
