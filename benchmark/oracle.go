package main

import (
	"fmt"

	"repro/internal/plan"
	"repro/internal/reference"
)

// streamsOf collects the base streams a logical plan reads.
func streamsOf(root *plan.Node) map[int]bool {
	reads := map[int]bool{}
	walkPlan(root, func(n *plan.Node) {
		if n.Kind == plan.Source {
			reads[n.StreamID] = true
		}
	})
	return reads
}

// sameAnswer compares an engine snapshot with the oracle's rows as bags. A
// negation's answer is only fixed up to the choice of copies: Equation 1
// says how many tuples per value of the negation attribute survive, not
// which ones, and above a join the engine and the oracle enumerate the
// copies in different orders. So when the full bags of a negation root
// differ, the bags over the negation attribute must still agree.
func sameAnswer(root *plan.Node, got, want []reference.Row) bool {
	if reference.SameBag(got, want) {
		return true
	}
	if root.Kind != plan.Negate {
		return false
	}
	project := func(rows []reference.Row) []reference.Row {
		out := make([]reference.Row, len(rows))
		for i, r := range rows {
			for _, c := range root.LeftCols {
				out[i] = append(out[i], r[c])
			}
		}
		return out
	}
	return reference.SameBag(project(got), project(want))
}

// oracleCheck is the set-up half of the correctness gate. It builds a fresh
// engine exactly as the measured one is built, feeds it the first 1.5
// windows of the trace through the workload's own ingest grain, and at three
// cut points compares every query's Snapshot with internal/reference, which
// recomputes Q(τ) from scratch over the window contents (Definition 1).
func oracleCheck(w workload, in *input) error {
	sys, err := build(w, legCfg{shards: w.shards}, false)
	if err != nil {
		return err
	}
	defer sys.ing.Close()

	evals := make([]*reference.Evaluator, len(w.queries))
	reads := make([]map[int]bool, len(w.queries))
	roots := make([]*plan.Node, len(w.queries))
	for i, q := range w.queries {
		root, err := q.logicalPlan(w.links)
		if err != nil {
			return fmt.Errorf("%s: %w", q.name, err)
		}
		roots[i] = root
		evals[i] = reference.New(root)
		reads[i] = streamsOf(root)
	}

	prefix := min(int(w.window*3/2)*w.links, len(in.recs))
	lo := 0
	for cut := 1; cut <= 3; cut++ {
		hi := prefix * cut / 3
		arr := in.arrivals(0, lo, hi)
		for _, a := range arr {
			for i, ev := range evals {
				if reads[i][a.Stream] {
					ev.Push(a.Stream, a.TS, a.Vals...)
				}
			}
		}
		if w.grain == grainTuple {
			for _, a := range arr {
				if err := sys.ing.Push(a.Stream, a.TS, a.Vals...); err != nil {
					return err
				}
			}
		} else {
			for b := 0; b < len(arr); b += w.batch {
				if err := sys.ing.PushBatch(arr[b:min(b+w.batch, len(arr))]); err != nil {
					return err
				}
			}
		}
		lo = hi
		now := arr[len(arr)-1].TS
		snaps, err := sys.snapshots()
		if err != nil {
			return err
		}
		for i, q := range w.queries {
			want, err := evals[i].Eval(now)
			if err != nil {
				return fmt.Errorf("%s: %w", q.name, err)
			}
			if got := reference.RowsOf(snaps[i]); !sameAnswer(roots[i], got, want) {
				return fmt.Errorf("%s at τ=%d: engine holds %d rows, Definition 1 gives %d (or the bags differ)",
					q.name, now, len(got), len(want))
			}
		}
	}
	return nil
}
