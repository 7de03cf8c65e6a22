// Command pythia-paper regenerates the paper's evaluation tables and
// figures (Colin, Trahay, Conan — CLUSTER 2022, section III) on the
// simulated substrates:
//
//	pythia-paper -experiment table1     # Table I: PYTHIA-RECORD overhead
//	pythia-paper -experiment fig7       # grammar extracted from BT.large
//	pythia-paper -experiment fig8       # prediction accuracy vs distance
//	pythia-paper -experiment fig9       # prediction cost vs distance
//	pythia-paper -experiment fig10      # LULESH vs problem size (pudding/24)
//	pythia-paper -experiment fig11      # LULESH vs problem size (pixel/16)
//	pythia-paper -experiment fig12      # LULESH vs max threads (pudding)
//	pythia-paper -experiment fig13      # LULESH vs max threads (pixel)
//	pythia-paper -experiment fig14      # LULESH vs injected error rate
//	pythia-paper -experiment all        # everything, in paper order
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/apps"
	"repro/internal/harness"
	"repro/internal/ompsim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pythia-paper:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("pythia-paper", flag.ContinueOnError)
	var (
		experiment = fs.String("experiment", "all", "table1|fig7|fig8|fig9|fig10|fig11|fig12|fig13|fig14|ext-ranks|ext-duration|all")
		reps       = fs.Int("reps", 10, "repetitions for wall-clock measurements (table1)")
		appsFlag   = fs.String("apps", "", "comma-separated application subset (default: all 13)")
		classFlag  = fs.String("class", "large", "working set for table1 (small|medium|large)")
		seeds      = fs.Int("seeds", 5, "seeds averaged in fig14")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h: the usage text is already printed
		}
		return err
	}

	var appList []string
	if *appsFlag != "" {
		appList = strings.Split(*appsFlag, ",")
	}
	class, err := apps.ParseClass(*classFlag)
	if err != nil {
		return err
	}

	runOne := func(name string) error {
		switch name {
		case "table1":
			rows, err := harness.Table1(harness.Table1Config{
				Class: class, Repetitions: *reps, Apps: appList,
			})
			if err != nil {
				return fmt.Errorf("table1: %w", err)
			}
			if err := harness.WriteTable1(stdout, class, rows); err != nil {
				return fmt.Errorf("rendering table1: %w", err)
			}
		case "fig7":
			if err := harness.Fig7(stdout); err != nil {
				return fmt.Errorf("fig7: %w", err)
			}
		case "fig8":
			rows, err := harness.Fig8(harness.Fig8Config{Apps: appList})
			if err != nil {
				return fmt.Errorf("fig8: %w", err)
			}
			if err := harness.WriteFig8(stdout, nil, rows); err != nil {
				return fmt.Errorf("rendering fig8: %w", err)
			}
		case "fig9":
			rows, err := harness.Fig9(harness.Fig9Config{Apps: appList})
			if err != nil {
				return fmt.Errorf("fig9: %w", err)
			}
			if err := harness.WriteFig9(stdout, nil, rows); err != nil {
				return fmt.Errorf("rendering fig9: %w", err)
			}
		case "fig10":
			pts := harness.Fig10(ompsim.Pudding())
			if err := harness.WriteLuleshPoints(stdout,
				"Fig 10: Execution time of Lulesh vs problem size (pudding, 24 threads)",
				"size", pts); err != nil {
				return fmt.Errorf("rendering fig10: %w", err)
			}
		case "fig11":
			pts := harness.Fig10(ompsim.Pixel())
			if err := harness.WriteLuleshPoints(stdout,
				"Fig 11: Execution time of Lulesh vs problem size (pixel, 16 threads)",
				"size", pts); err != nil {
				return fmt.Errorf("rendering fig11: %w", err)
			}
		case "fig12":
			pts := harness.Fig12(ompsim.Pudding())
			if err := harness.WriteLuleshPoints(stdout,
				"Fig 12: Execution time of Lulesh vs max threads (pudding, s=30)",
				"max threads", pts); err != nil {
				return fmt.Errorf("rendering fig12: %w", err)
			}
		case "fig13":
			pts := harness.Fig12(ompsim.Pixel())
			if err := harness.WriteLuleshPoints(stdout,
				"Fig 13: Execution time of Lulesh vs max threads (pixel, s=30)",
				"max threads", pts); err != nil {
				return fmt.Errorf("rendering fig13: %w", err)
			}
		case "fig14":
			if err := harness.WriteFig14(stdout, harness.Fig14(*seeds)); err != nil {
				return fmt.Errorf("rendering fig14: %w", err)
			}
		case "ext-ranks":
			names := appList
			if len(names) == 0 {
				names = []string{"BT", "CG", "LU"}
			}
			rows, err := harness.ExtRanks(names, 4, []int{4, 8})
			if err != nil {
				return fmt.Errorf("ext-ranks: %w", err)
			}
			if err := harness.WriteExtRanks(stdout, rows); err != nil {
				return fmt.Errorf("rendering ext-ranks: %w", err)
			}
		case "ext-duration":
			rows, err := harness.ExtDuration(30)
			if err != nil {
				return fmt.Errorf("ext-duration: %w", err)
			}
			if err := harness.WriteExtDuration(stdout, 30, rows); err != nil {
				return fmt.Errorf("rendering ext-duration: %w", err)
			}
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
		if _, err := fmt.Fprintln(stdout); err != nil {
			return fmt.Errorf("rendering %s: %w", name, err)
		}
		return nil
	}

	if *experiment == "all" {
		for _, name := range []string{"table1", "fig7", "fig8", "fig9",
			"fig10", "fig11", "fig12", "fig13", "fig14"} {
			if err := runOne(name); err != nil {
				return err
			}
		}
		return nil
	}
	return runOne(*experiment)
}
