package main

import (
	"fmt"
	"io"
)

// verdict is the outcome of one workload × metric comparison.
type verdict string

const (
	verdictOK         verdict = "ok"
	verdictWorse      verdict = "worse"
	verdictUnresolved verdict = "unresolved"
)

// judge applies a metric's bound. worseBy is how much worse the new median
// is than the base's, as a share of the base (negative when better). A set
// whose own samples are spread wider than the bound cannot resolve a
// difference of the bound's size, so it is reported as unresolved rather
// than as unchanged.
func judge(d metricDef, base, cur value) (v verdict, worseBy, spreadBase, spreadCur float64) {
	if base.Value != 0 {
		worseBy = (cur.Value - base.Value) / base.Value
		if d.higher {
			worseBy = -worseBy
		}
	}
	spreadBase, spreadCur = spread(base.Samples), spread(cur.Samples)
	switch {
	case spreadBase > d.bound || spreadCur > d.bound:
		v = verdictUnresolved
	case worseBy > d.bound:
		v = verdictWorse
	default:
		v = verdictOK
	}
	return v, worseBy, spreadBase, spreadCur
}

// runCompare prints one row per workload × end-to-end metric of two -out
// files and returns the process exit code: 0 when every row is ok.
func runCompare(w io.Writer, basePath, curPath string) int {
	base, err := readReport(basePath)
	if err != nil {
		fmt.Fprintln(w, err)
		return 2
	}
	cur, err := readReport(curPath)
	if err != nil {
		fmt.Fprintln(w, err)
		return 2
	}
	byName := map[string]workloadReport{}
	for _, r := range cur.Workloads {
		if !r.Traced {
			byName[r.Workload] = r
		}
	}
	fmt.Fprintf(w, "base %s (%d cpu, %s)  new %s (%d cpu, %s)\n",
		basePath, base.Host.NumCPU, base.Host.GoVersion, curPath, cur.Host.NumCPU, cur.Host.GoVersion)
	fmt.Fprintf(w, "%-16s %-17s %14s %14s %-13s %9s %8s %7s %7s  %s\n",
		"workload", "metric", "base", "new", "unit", "new/base", "worse by", "bound", "spread", "verdict")
	code, rows := 0, 0
	for _, b := range base.Workloads {
		c, ok := byName[b.Workload]
		if b.Traced || !ok {
			continue
		}
		for _, d := range endToEnd {
			bv, cv := b.Metrics[d.name], c.Metrics[d.name]
			v, worseBy, sb, sc := judge(d, bv, cv)
			ratio := 0.0
			if bv.Value != 0 {
				ratio = cv.Value / bv.Value
			}
			fmt.Fprintf(w, "%-16s %-17s %14.4f %14.4f %-13s %9.4f %+7.1f%% %6.0f%% %6.1f%%  %s\n",
				b.Workload, d.name, bv.Value, cv.Value, d.unit, ratio, 100*worseBy, 100*d.bound, 100*max(sb, sc), v)
			rows++
			if v != verdictOK {
				code = 1
			}
		}
		if c.Failed > 0 || !c.Correct || b.Failed > 0 || !b.Correct {
			fmt.Fprintf(w, "%-16s failed ops: base %d of %d, new %d of %d\n", b.Workload, b.Failed, b.Attempted, c.Failed, c.Attempted)
			code = 1
		}
	}
	if rows == 0 {
		fmt.Fprintln(w, "no end-to-end workload is present in both files")
		return 2
	}
	return code
}
