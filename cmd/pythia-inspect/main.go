// Command pythia-inspect dumps the contents of a Pythia trace file: the
// per-thread grammars in the paper's notation, event statistics, durability
// metadata (format version, checksum status, truncation and salvage
// provenance), and optionally the timing model.
//
//	pythia-inspect -trace bt.pythia
//	pythia-inspect -trace bt.pythia -thread 0 -timing
//	pythia-inspect -trace bt.pythia -json > bt.json
//	pythia-inspect -checkpoints bt.ckpt
//	pythia-inspect -generations bt.learn
//
// The -checkpoints mode scans a checkpoint journal directory (see
// pythia-record -checkpoint) and reports every generation with its load
// status, without modifying anything. The -generations mode scans the same
// directory layout as a model-lifecycle journal (see pythiad -learn and
// pythia.WithOnlineLearning) and additionally prints each generation's
// lineage: how it was minted (seed checkpoint, promotion, rollback), which
// generation it replaced, and when.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"repro/internal/tracefile"
	"repro/pythia"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pythia-inspect:", err)
		os.Exit(1)
	}
}

// printer accumulates the first write error so the dump code can print
// unconditionally and surface I/O failures once, through run's return.
type printer struct {
	w   io.Writer
	err error
}

func (p *printer) printf(format string, args ...any) {
	if p.err == nil {
		_, p.err = fmt.Fprintf(p.w, format, args...)
	}
}

func (p *printer) println(args ...any) {
	if p.err == nil {
		_, p.err = fmt.Fprintln(p.w, args...)
	}
}

func (p *printer) print(args ...any) {
	if p.err == nil {
		_, p.err = fmt.Fprint(p.w, args...)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("pythia-inspect", flag.ContinueOnError)
	var (
		trace   = fs.String("trace", "", "trace file (required unless -checkpoints)")
		thread  = fs.Int("thread", -1, "dump only this thread (-1 = all)")
		timing  = fs.Bool("timing", false, "also dump per-event timing statistics")
		unfold  = fs.Bool("unfold", false, "print the full unfolded event stream")
		summary = fs.Bool("summary", false, "print only the per-thread summary")
		asJSON  = fs.Bool("json", false, "dump the whole trace as JSON to stdout")
		ckpts   = fs.String("checkpoints", "", "scan a checkpoint journal directory instead of a trace file")
		gens    = fs.String("generations", "", "print the model-lifecycle lineage of a generation journal directory")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h: the usage text is already printed
		}
		return err
	}
	p := &printer{w: stdout}
	if *gens != "" {
		if err := inspectGenerations(p, *gens); err != nil {
			return err
		}
		return p.err
	}
	if *ckpts != "" {
		if err := inspectJournal(p, *ckpts); err != nil {
			return err
		}
		return p.err
	}
	if *trace == "" {
		return fmt.Errorf("-trace is required")
	}
	ts, err := pythia.LoadTraceSet(*trace)
	if err != nil {
		return err
	}

	if *asJSON {
		return tracefile.ExportJSON(stdout, ts)
	}

	p.printf("trace %s: %d event kinds, %d threads, %d events total\n",
		*trace, len(ts.Events), len(ts.Threads), ts.TotalEvents())
	printDurability(p, *trace, ts)

	tids := ts.ThreadIDs()
	for _, tid := range tids {
		if *thread >= 0 && int32(*thread) != tid {
			continue
		}
		th := ts.Threads[tid]
		p.printf("\nthread %d: %d events, %d rules", tid, th.Grammar.EventCount, len(th.Grammar.Rules))
		if th.Timing != nil {
			p.printf(", %d timed contexts", th.Timing.Contexts())
		}
		if th.Truncated {
			p.printf(", truncated (+%d dropped)", th.Dropped)
		}
		p.println()
		if *summary {
			continue
		}
		p.print(th.Grammar.Dump(func(id int32) string {
			if int(id) < len(ts.Events) {
				return ts.Events[id]
			}
			return fmt.Sprintf("?%d", id)
		}))
		if *unfold {
			p.println("stream:")
			for _, id := range th.Grammar.Unfold() {
				p.println("  ", ts.Events[id])
			}
		}
		if *timing && th.Timing != nil {
			p.println("mean delta before each event (context-free):")
			ids := make([]int32, 0, len(th.Timing.ByEvent))
			for id := range th.Timing.ByEvent {
				ids = append(ids, id)
			}
			sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
			for _, id := range ids {
				s := th.Timing.ByEvent[id]
				p.printf("  %-40s mean %10.0fns  min %8d  max %8d  (n=%d)\n",
					ts.Events[id], s.Mean(), s.Min, s.Max, s.Count)
			}
		}
	}
	return p.err
}

// printDurability reports the on-disk framing (format version, payload
// size, CRC trailer) and the trace's provenance: a salvaged trace is a
// truncated prefix of a crashed recording and downstream consumers deserve
// to know before they trust its tail.
func printDurability(p *printer, path string, ts *pythia.TraceSet) {
	if meta, err := tracefile.InspectFile(path); err == nil {
		crc := "ok"
		if !meta.CRCOK {
			crc = fmt.Sprintf("MISMATCH (stored %08x, computed %08x)", meta.CRCStored, meta.CRCComputed)
		}
		p.printf("durability: format v%d, payload %d bytes, crc %s\n",
			meta.Version, meta.PayloadBytes, crc)
	}
	if pr := ts.Provenance; pr != nil {
		src := "clean shutdown"
		if pr.Salvaged {
			src = "salvaged from a crashed recording (truncated prefix)"
		}
		if pr.ReplicatedFrom != "" {
			src += ", replicated from " + pr.ReplicatedFrom
		}
		p.printf("provenance: checkpoint generation %d, %s\n", pr.Generation, src)
	}
	var truncated int
	var dropped int64
	for _, th := range ts.Threads {
		if th.Truncated {
			truncated++
		}
		dropped += th.Dropped
	}
	if truncated > 0 {
		p.printf("truncation: %d/%d threads truncated, %d events dropped\n",
			truncated, len(ts.Threads), dropped)
	}
}

// inspectJournal lists every checkpoint generation of a journal directory
// with its load status — the read-only view of what -resume would do.
func inspectJournal(p *printer, dir string) error {
	sts, err := tracefile.ScanJournal(dir)
	if err != nil {
		return err
	}
	if len(sts) == 0 {
		p.printf("journal %s: no checkpoint generations\n", dir)
		return nil
	}
	p.printf("journal %s: %d generation(s)\n", dir, len(sts))
	best := uint64(0)
	for i := len(sts) - 1; i >= 0; i-- {
		if sts[i].Err == "" {
			best = sts[i].Generation
			break
		}
	}
	for _, st := range sts {
		if st.Err != "" {
			p.printf("  generation %d: UNRECOVERABLE: %s\n", st.Generation, st.Err)
			continue
		}
		mark := ""
		if st.Generation == best {
			mark = "  <- freshest recoverable"
		}
		p.printf("  generation %d: %d threads, %d events%s\n",
			st.Generation, st.Threads, st.Events, mark)
	}
	if best == 0 {
		p.println("no generation is recoverable")
	}
	return nil
}

// inspectGenerations prints the model-lifecycle lineage of a generation
// journal: per generation the mint kind (seed checkpoint, promotion,
// rollback), the generation it replaced, the mint time, and the load
// status. This is the read-only audit trail of what a learning session did.
func inspectGenerations(p *printer, dir string) error {
	sts, err := tracefile.ScanJournal(dir)
	if err != nil {
		return err
	}
	if len(sts) == 0 {
		p.printf("journal %s: no generations\n", dir)
		return nil
	}
	p.printf("journal %s: %d generation(s), newest serves after recovery\n", dir, len(sts))
	for _, st := range sts {
		if st.Err != "" {
			p.printf("  generation %d: UNRECOVERABLE: %s\n", st.Generation, st.Err)
			continue
		}
		ts, lerr := pythia.LoadTraceSet(st.Path)
		if lerr != nil {
			p.printf("  generation %d: unreadable: %v\n", st.Generation, lerr)
			continue
		}
		kind, from, when := "seed checkpoint", "", ""
		if pr := ts.Provenance; pr != nil {
			switch pr.Kind {
			case pythia.ProvPromotion:
				kind = "promotion"
			case pythia.ProvRollback:
				kind = "rollback"
			}
			if pr.Parent != 0 {
				from = fmt.Sprintf(", replaced generation %d", pr.Parent)
			}
			if pr.UnixNanos != 0 {
				when = ", minted " + time.Unix(0, pr.UnixNanos).UTC().Format(time.RFC3339)
			}
			if pr.ReplicatedFrom != "" {
				from += ", replicated from " + pr.ReplicatedFrom
			}
		}
		p.printf("  generation %d: %s%s%s: %d threads, %d events\n",
			st.Generation, kind, from, when, st.Threads, st.Events)
	}
	return nil
}
