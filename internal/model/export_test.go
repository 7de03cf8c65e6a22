package model

import "repro/internal/grammar"

// MemoCap is Replay's memo cap, for tests that build loop bodies around it.
const MemoCap = memoCap

// Add records one observation for the event with the given progress
// sequence (refs topmost-first, last entry is the terminal run), like
// Timing.AddPath: the per-event form of Replay's chain resolution and merge.
func (b *TimingBuilder) Add(refs []grammar.UserRef, eventID int32, ns int64) {
	b.merge(b.chain(refs), eventID, Stat{Count: 1, Sum: ns, Min: ns, Max: ns})
}

// Memoised returns how many events Replay folded from a memo instead of
// walking them.
func Memoised(b *TimingBuilder) int64 { return b.memoised }

// MemoLen returns how many events b's memo has room for.
func MemoLen(b *TimingBuilder) int { return len(b.memo.route) }
