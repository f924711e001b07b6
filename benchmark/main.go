// Command benchmark is the repository's one canonical performance suite:
// five named workloads, five end-to-end metrics with fixed regression
// bounds, and — with -trace 1 — a per-layer time budget that sums to the
// pass. See README.md in this directory.
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		name     = flag.String("workload", "", "run one workload (default: all five)")
		seed     = flag.Int64("seed", 1, "trace generator seed; the same seed gives the same input")
		seconds  = flag.Float64("seconds", 10, "how long each workload's timed passes run")
		trace    = flag.Int("trace", 0, "1: traced run that prints the per-layer metrics instead of the end-to-end ones")
		traceOut = flag.String("trace-out", "", "with -trace 1: write the recorded spans to this file, one JSON object per line")
		out      = flag.String("out", "", "also write the full report (host block, per-pass samples) to this JSON file")
		compare  = flag.Bool("compare", false, "compare two -out files: benchmark -compare base.json new.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare base.json new.json")
			os.Exit(2)
		}
		os.Exit(runCompare(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}

	ws := workloads()
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown workload %q\n", *name)
			os.Exit(2)
		}
		ws = []workload{w}
	}

	h := hostBlock()
	fmt.Printf("host: %d cpu, GOMAXPROCS %d, %s %s/%s\n", h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.OS, h.Arch)
	full := report{Schema: 1, Host: h}
	spans := map[string][]span{}
	ok := true
	for _, w := range ws {
		var rep *workloadReport
		var err error
		if *trace != 0 {
			rep, spans[w.name], err = runTraced(w, *seed, *seconds)
		} else {
			rep, err = runEndToEnd(w, *seed, *seconds)
		}
		if err != nil {
			// A run that could not be measured prints no result line.
			fmt.Fprintf(os.Stderr, "FAIL %s: %v\n", w.name, err)
			os.Exit(1)
		}
		rep.print(os.Stdout)
		full.Workloads = append(full.Workloads, *rep)
		ok = ok && rep.Correct && rep.Failed == 0
	}
	if *out != "" {
		if err := writeReport(*out, full); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *traceOut != "" {
		if err := writeSpanFile(*traceOut, spans); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	// The machine-read result of each workload, the last one last.
	for i := range full.Workloads {
		if err := full.Workloads[i].resultLine(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if !ok {
		os.Exit(1)
	}
}

func writeSpanFile(path string, spans map[string][]span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	for _, w := range workloads() {
		if err := writeSpans(f, w.name, spans[w.name]); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
