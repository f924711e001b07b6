// Command upabench regenerates the evaluation tables of the paper's
// Section 6: for every experiment E1–E8 it runs the workload under each
// execution strategy and prints the measured time and state series.
// Performance of the system as a whole is measured by benchmark/run.sh.
//
// Usage:
//
//	upabench                 # run every experiment at quick scale
//	upabench -scale full     # paper-scale window sweeps (slow)
//	upabench -exp e1a,e3a    # run a subset
//	upabench -list           # list experiment ids
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
)

func main() {
	scale := flag.String("scale", "quick", "experiment scale: quick or full")
	exps := flag.String("exp", "", "comma-separated experiment ids (default: all)")
	list := flag.Bool("list", false, "list experiments and exit")
	flag.Parse()

	if err := run(*scale, *exps, *list); err != nil {
		fmt.Fprintln(os.Stderr, "upabench:", err)
		os.Exit(1)
	}
}

func run(scaleName, expFilter string, list bool) error {
	all := bench.Experiments()
	if list {
		for _, e := range all {
			fmt.Printf("%-5s %s\n", e.ID, e.Title)
		}
		return nil
	}
	var scale bench.Scale
	switch scaleName {
	case "quick":
		scale = bench.Quick
	case "full":
		scale = bench.Full
	default:
		return fmt.Errorf("unknown scale %q (want quick or full)", scaleName)
	}
	want := map[string]bool{}
	if expFilter != "" {
		for _, id := range strings.Split(expFilter, ",") {
			want[strings.TrimSpace(id)] = true
		}
		for id := range want {
			if !hasExperiment(all, id) {
				return fmt.Errorf("unknown experiment %q (use -list)", id)
			}
		}
	}
	for _, e := range all {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		fmt.Printf("# %s\n\n", e.Title)
		tabs, err := e.Run(scale)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		for _, t := range tabs {
			if err := bench.WriteTable(os.Stdout, t); err != nil {
				return err
			}
		}
	}
	return nil
}

func hasExperiment(all []bench.Experiment, id string) bool {
	for _, e := range all {
		if e.ID == id {
			return true
		}
	}
	return false
}
