// Command pythia-shardplan prints where a pythiad fleet's shard map places
// tenants — without contacting any daemon. It runs the same rendezvous hash
// the fleet runs, so an operator can answer "which daemon owns tenant X at
// epoch E?" before bumping an epoch, adding a daemon, or draining one:
//
//	pythia-shardplan -daemons host1:9137,host2:9137 -epoch 2 EP CG BT
//	pythia-shardplan -daemons host1:9137,host2:9137 -replicas 1 < tenants.txt
//
// One line per tenant: the tenant, its owner, then any warm replicas, all
// tab-separated. Comparing the output at two epochs shows exactly which
// tenants an epoch bump migrates, and lets a load test pick a tenant set the
// map spreads evenly across the fleet.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cluster"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pythia-shardplan:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout *os.File) error {
	fs := flag.NewFlagSet("pythia-shardplan", flag.ContinueOnError)
	var (
		daemons  = fs.String("daemons", "", "comma-separated fleet daemon addresses (required)")
		epoch    = fs.Uint64("epoch", 1, "shard-map epoch to plan for")
		replicas = fs.Int("replicas", 0, "warm replicas per tenant beyond the owner")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var fleet []string
	for _, a := range strings.Split(*daemons, ",") {
		if a = strings.TrimSpace(a); a != "" {
			fleet = append(fleet, a)
		}
	}
	if len(fleet) == 0 {
		return fmt.Errorf("-daemons is required")
	}
	if *epoch == 0 {
		return fmt.Errorf("-epoch must be at least 1")
	}
	if *replicas < 0 {
		return fmt.Errorf("-replicas must be >= 0")
	}
	m := cluster.Map{Epoch: *epoch, Replicas: *replicas, Daemons: fleet}

	tenants := fs.Args()
	if len(tenants) == 0 {
		sc := bufio.NewScanner(os.Stdin)
		for sc.Scan() {
			if t := strings.TrimSpace(sc.Text()); t != "" {
				tenants = append(tenants, t)
			}
		}
		if err := sc.Err(); err != nil {
			return fmt.Errorf("reading tenants from stdin: %w", err)
		}
	}
	if len(tenants) == 0 {
		return fmt.Errorf("no tenants given (arguments or stdin)")
	}

	w := bufio.NewWriter(stdout)
	for _, t := range tenants {
		if _, err := fmt.Fprintln(w, strings.Join(append([]string{t}, m.Assignment(t)...), "\t")); err != nil {
			return err
		}
	}
	return w.Flush()
}
