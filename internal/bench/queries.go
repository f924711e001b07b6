// Package bench is the experiment harness for the Section 6 evaluation: it
// builds the five test queries over the synthetic LBL-style traffic trace,
// runs them under each execution strategy, and reports the paper's metric —
// average overall execution time (processing + insertion + expiration) per
// 1000 tuples processed — alongside state-size and tuple-touch counters.
package bench

import (
	"fmt"

	"repro/internal/operator"
	"repro/internal/plan"
	"repro/internal/trace"
	"repro/internal/tuple"
	"repro/internal/window"
)

// Query identifies one of the experimental queries of Section 6.1.
type Query int

const (
	// Q1FTP joins two links on srcIP with the selective protocol=ftp
	// predicate (result size ≈ input size).
	Q1FTP Query = iota
	// Q1Telnet is Query 1 with protocol=telnet (ten times the results).
	Q1Telnet
	// Q2Distinct selects the distinct source IPs on one link.
	Q2Distinct
	// Q2Pairs selects the distinct (src, dst) pairs on one link.
	Q2Pairs
	// Q3Negation is the negation of two links on srcIP with overlapping
	// address sets (frequent premature expirations).
	Q3Negation
	// Q3Disjoint is Q3 over links with disjoint address sets (premature
	// expirations never happen, Section 5.3.2).
	Q3Disjoint
	// Q4DistinctJoin selects distinct srcIPs on two links and joins them.
	Q4DistinctJoin
	// Q5PushDown is (L1 − L2) ⋈ σ(protocol=ftp)(L3) with negation below
	// the join (Figure 6, right).
	Q5PushDown
	// Q5PullUp is the same query with negation pulled above the join
	// (Figure 6, left).
	Q5PullUp
	// Q6GroupBy aggregates one link per protocol (count and summed payload)
	// — the Section 2.1 group-by over a sliding window, served to upaquery as
	// q6-groupby: every arrival and every expiration touches the per-group
	// state.
	Q6GroupBy
)

// String names the query as used in report tables.
func (q Query) String() string {
	switch q {
	case Q1FTP:
		return "Q1-ftp"
	case Q1Telnet:
		return "Q1-telnet"
	case Q2Distinct:
		return "Q2-distinct-src"
	case Q2Pairs:
		return "Q2-distinct-pairs"
	case Q3Negation:
		return "Q3-negation"
	case Q3Disjoint:
		return "Q3-negation-disjoint"
	case Q4DistinctJoin:
		return "Q4-distinct-join"
	case Q5PushDown:
		return "Q5-pushdown"
	case Q5PullUp:
		return "Q5-pullup"
	case Q6GroupBy:
		return "Q6-groupby-protocol"
	default:
		return fmt.Sprintf("query(%d)", int(q))
	}
}

// Links returns the number of logical streams the query reads.
func (q Query) Links() int {
	switch q {
	case Q2Distinct, Q2Pairs, Q6GroupBy:
		return 1
	case Q5PushDown, Q5PullUp:
		return 3
	default:
		return 2
	}
}

// DisjointSources reports whether the query's trace should use per-link
// disjoint address domains.
func (q Query) DisjointSources() bool { return q == Q3Disjoint }

// SrcSkew returns the source-address skew for the query's workload. Join
// queries use uniform addresses — under a heavy Zipf skew the join result
// grows with the square of the hot values' frequency, swamping the state-
// maintenance effect the experiment isolates. Distinct and negation keep
// the Zipf reuse real traces show.
func (q Query) SrcSkew() float64 {
	switch q {
	case Q1FTP, Q1Telnet, Q4DistinctJoin, Q5PushDown, Q5PullUp:
		return 0.5 // uniform
	default:
		return 1.1
	}
}

// BuildPlan constructs the logical plan for q with the given window size
// (time units) on every link.
func BuildPlan(q Query, windowSize int64) *plan.Node {
	schema := trace.Schema()
	win := func(link int) *plan.Node {
		return plan.NewSource(link, window.Spec{Type: window.TimeBased, Size: windowSize}, schema)
	}
	protoSel := func(link int, proto string) *plan.Node {
		return plan.NewSelect(win(link), operator.ColConst{
			Col: trace.ColProtocol, Op: operator.EQ,
			Val: tuple.String_(proto),
			Sel: trace.ProtocolShare(proto),
		})
	}
	switch q {
	case Q1FTP:
		return plan.NewJoin(protoSel(0, "ftp"), protoSel(1, "ftp"),
			[]int{trace.ColSrc}, []int{trace.ColSrc})
	case Q1Telnet:
		return plan.NewJoin(protoSel(0, "telnet"), protoSel(1, "telnet"),
			[]int{trace.ColSrc}, []int{trace.ColSrc})
	case Q2Distinct:
		return plan.NewDistinct(plan.NewProject(win(0), trace.ColSrc))
	case Q2Pairs:
		return plan.NewDistinct(plan.NewProject(win(0), trace.ColSrc, trace.ColDst))
	case Q3Negation, Q3Disjoint:
		return plan.NewNegate(win(0), win(1), []int{trace.ColSrc}, []int{trace.ColSrc})
	case Q4DistinctJoin:
		d := func(link int) *plan.Node {
			return plan.NewDistinct(plan.NewProject(win(link), trace.ColSrc))
		}
		return plan.NewJoin(d(0), d(1), []int{0}, []int{0})
	case Q5PushDown:
		neg := plan.NewNegate(win(0), win(1), []int{trace.ColSrc}, []int{trace.ColSrc})
		return plan.NewJoin(neg, protoSel(2, "ftp"), []int{trace.ColSrc}, []int{trace.ColSrc})
	case Q5PullUp:
		join := plan.NewJoin(win(0), protoSel(2, "ftp"), []int{trace.ColSrc}, []int{trace.ColSrc})
		return plan.NewNegate(join, win(1), []int{trace.ColSrc}, []int{trace.ColSrc})
	case Q6GroupBy:
		return plan.NewGroupBy(win(0), []int{trace.ColProtocol},
			operator.AggSpec{Kind: operator.Count},
			operator.AggSpec{Kind: operator.Sum, Col: trace.ColPayload})
	default:
		panic(fmt.Sprintf("bench: unknown query %d", q))
	}
}

// PlanStats returns trace-informed statistics for cost estimation.
func PlanStats(q Query, srcHosts int) plan.Stats {
	if srcHosts <= 0 {
		srcHosts = 1000
	}
	st := plan.Stats{Streams: map[int]plan.StreamStats{}, DefaultRate: 1, DefaultDistinct: float64(srcHosts)}
	for link := 0; link < q.Links(); link++ {
		st.Streams[link] = plan.StreamStats{
			Rate: 1,
			Distinct: map[int]float64{
				trace.ColSrc: float64(srcHosts),
				trace.ColDst: 1,
			},
		}
	}
	return st
}

// AllQueries lists every experimental query.
func AllQueries() []Query {
	return []Query{Q1FTP, Q1Telnet, Q2Distinct, Q2Pairs, Q3Negation, Q3Disjoint, Q4DistinctJoin, Q5PushDown, Q5PullUp, Q6GroupBy}
}
