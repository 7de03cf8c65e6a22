package recorder

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/grammar"
	"repro/internal/model"
)

// Canonical renders tm's contexts and per-event statistics one per line,
// sorted: the form tests compare two Timings in, since two tables intern
// the same contexts in different orders.
func Canonical(tm *model.Timing) string {
	var lines []string
	tm.EachContext(func(refs []grammar.UserRef, s model.Stat) {
		lines = append(lines, fmt.Sprintf("context %v %+v", refs, s))
	})
	for id, s := range tm.ByEvent {
		lines = append(lines, fmt.Sprintf("event %d %+v", id, s))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}
