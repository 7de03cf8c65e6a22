package events

// SnapshotOf reports r's published snapshot: a value that changes exactly
// when a new snapshot is published, and how many names it holds.
func SnapshotOf(r *Registry) (snap any, names int) {
	s := r.snap.Load()
	return s, len(s.names)
}
