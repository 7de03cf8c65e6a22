package harness

import (
	"io"
	"strings"

	"repro/internal/apps"
)

// Fig7 records BT on the large working set and renders the grammar of one
// rank in the paper's notation (Fig. 7): the MPI_ prefixes are stripped and
// peer-rank payloads dropped for readability, exactly as the paper does.
func Fig7(w io.Writer) error {
	app, err := apps.ByName("BT")
	if err != nil {
		return err
	}
	run := RunMPIApp(app, apps.Large, true, recordSeed)
	tid := sortedThreadIDs(run.Trace.Threads)[0]
	g := run.Trace.Threads[tid].Grammar
	rw := &reportWriter{w: w}
	rw.printf("Fig 7: grammar extracted from BT.large (rank %d, %d events, %d rules)\n",
		tid, g.EventCount, len(g.Rules))
	dump := g.Dump(func(id int32) string {
		name := run.Trace.Events[id]
		name = strings.TrimPrefix(name, "MPI_")
		if i := strings.IndexByte(name, ':'); i >= 0 {
			name = name[:i]
		}
		return name
	})
	rw.printf("%s", dump)
	return rw.err
}
