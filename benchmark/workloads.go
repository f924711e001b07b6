package main

import (
	"fmt"

	"repro"
	"repro/internal/cql"
	"repro/internal/operator"
	"repro/internal/plan"
	"repro/internal/trace"
	"repro/internal/tuple"
	"repro/internal/window"
)

// grain is how a workload hands its input to the engine.
type grain int

const (
	// grainCSV parses in-memory CSV bytes with trace.ReadCSV, converts the
	// records to arrivals and feeds PushBatch — the CLI path.
	grainCSV grain = iota
	// grainTuple calls Push once per arrival from pre-built values.
	grainTuple
	// grainBatch calls PushBatch on pre-built arrivals.
	grainBatch
)

// Fixed sizes. They were calibrated once on the 2-core reference box so
// that a pass spans many windows and an ingest-call p99 has at least
// fifteen samples beyond it; they are constants so that two commits always
// measure the same job.
const (
	csvChunk = 65536 // records per trace.ReadCSV call
	srcHosts = 1000  // source-address domain of the generator
)

// query is one continuous query of a workload, defined twice: through the
// public facade (what is measured) and as a bare logical plan (what the
// Definition-1 oracle and the layer replays read). The oracle check proves
// the two definitions are the same query.
type query struct {
	name     string
	strategy repro.Strategy
	window   int64
	// cql, when set, is parsed by repro.ParseQuery (facade) and cql.Parse
	// (logical); otherwise node and logical build the plan.
	cql     string
	node    func() repro.Node
	logical func() *plan.Node
}

// workload is one named job of the suite.
type workload struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json).
	why      string
	links    int
	window   int64 // the dominant window, used by the window/statebuf replays
	lazy     int64 // lazy maintenance interval, time units
	records  int   // records per pass
	srcSkew  float64
	grain    grain
	shards   int  // > 1: Compile(..., WithShards(shards))
	batch    int  // arrivals per PushBatch call (1 for grainTuple)
	registry bool // NewRegistry(WithMetrics) + Register + mid-pass Checkpoint
	columnar bool // the engine must stay on the columnar path
	queries  []query
}

func src(link int, w int64) repro.Node {
	return repro.Stream(link, repro.TraceSchema(), repro.TimeWindow(w))
}

func ftp(link int, w int64) repro.Node {
	return src(link, w).Where(repro.Col("protocol").
		EqWithSelectivity(repro.Str("ftp"), trace.ProtocolShare("ftp")))
}

func lsrc(link int, w int64) *plan.Node {
	return plan.NewSource(link, window.Spec{Type: window.TimeBased, Size: w}, trace.Schema())
}

func lftp(link int, w int64) *plan.Node {
	return plan.NewSelect(lsrc(link, w), operator.ColConst{
		Col: trace.ColProtocol, Op: operator.EQ,
		Val: tuple.String_("ftp"), Sel: trace.ProtocolShare("ftp"),
	})
}

var srcCol = []string{"src"}
var lsrcCol = []int{trace.ColSrc}

// The paper's queries (Section 6.1), parameterised by link and window.

func q1(a, b int, w int64, s repro.Strategy) query {
	return query{name: "q1", strategy: s, window: w,
		node:    func() repro.Node { return ftp(a, w).JoinOn(ftp(b, w), "src") },
		logical: func() *plan.Node { return plan.NewJoin(lftp(a, w), lftp(b, w), lsrcCol, lsrcCol) },
	}
}

// q1Variant is Query 1 with a private payload cutoff on top, as experiment
// e11 builds its variants: the select+join prefix is shared, the top select
// has a distinct predicate digest per variant.
func q1Variant(i, n int, a, b int, w int64) query {
	cut := int64(i) * (1 << 13) / int64(n)
	base := q1(a, b, w, repro.UPA)
	return query{name: fmt.Sprintf("q1v%d", i), strategy: repro.UPA, window: w,
		node: func() repro.Node {
			return base.node().Where(repro.Col("payload").Gt(repro.Int(cut)))
		},
		logical: func() *plan.Node {
			return plan.NewSelect(base.logical(), operator.ColConst{
				Col: trace.ColPayload, Op: operator.GT, Val: tuple.Int(cut)})
		},
	}
}

func q2(name string, link int, w int64, s repro.Strategy) query {
	return query{name: name, strategy: s, window: w,
		node:    func() repro.Node { return src(link, w).Select("src").Distinct() },
		logical: func() *plan.Node { return plan.NewDistinct(plan.NewProject(lsrc(link, w), trace.ColSrc)) },
	}
}

func q4(a, b int, w int64) query {
	return query{name: "q4", strategy: repro.UPA, window: w,
		node: func() repro.Node {
			d := func(l int) repro.Node { return src(l, w).Select("src").Distinct() }
			return d(a).JoinOn(d(b), "src")
		},
		logical: func() *plan.Node {
			d := func(l int) *plan.Node { return plan.NewDistinct(plan.NewProject(lsrc(l, w), trace.ColSrc)) }
			return plan.NewJoin(d(a), d(b), []int{0}, []int{0})
		},
	}
}

// q5PullUp is (La ⋈ σftp(Lc)) − Lb with the negation above the join
// (Figure 6, left).
func q5PullUp(a, b, c int, w int64) query {
	return query{name: "q5", strategy: repro.UPA, window: w,
		node: func() repro.Node {
			return src(a, w).JoinOn(ftp(c, w), "src").Except(src(b, w), srcCol, srcCol)
		},
		logical: func() *plan.Node {
			return plan.NewNegate(plan.NewJoin(lsrc(a, w), lftp(c, w), lsrcCol, lsrcCol),
				lsrc(b, w), lsrcCol, lsrcCol)
		},
	}
}

func q6(name string, link int, w int64, s repro.Strategy) query {
	return query{name: name, strategy: s, window: w,
		node: func() repro.Node {
			return src(link, w).GroupBy([]string{"protocol"}, repro.CountAll(), repro.SumOf("payload"))
		},
		logical: func() *plan.Node {
			return plan.NewGroupBy(lsrc(link, w), []int{trace.ColProtocol},
				operator.AggSpec{Kind: operator.Count},
				operator.AggSpec{Kind: operator.Sum, Col: trace.ColPayload})
		},
	}
}

func cqlQuery(name, text string, w int64) query {
	return query{name: name, strategy: repro.UPA, window: w, cql: text}
}

// catalog names the generator's links l0, l1, ... for the CQL queries.
func catalog(links int) repro.Catalog {
	cat := repro.Catalog{Streams: map[string]repro.StreamDef{}}
	for i := 0; i < links; i++ {
		cat.Streams[fmt.Sprintf("l%d", i)] = repro.StreamDef{ID: i, Schema: repro.TraceSchema()}
	}
	return cat
}

// facadeNode builds q through the public API.
func (q query) facadeNode(links int) (repro.Node, error) {
	if q.cql != "" {
		return repro.ParseQuery(q.cql, catalog(links))
	}
	n := q.node()
	return n, n.Err()
}

// logicalPlan builds q as an annotated logical plan.
func (q query) logicalPlan(links int) (*plan.Node, error) {
	var root *plan.Node
	if q.cql != "" {
		var err error
		if root, err = cql.Parse(q.cql, catalog(links)); err != nil {
			return nil, err
		}
	} else {
		root = q.logical()
	}
	if err := plan.Annotate(root, plan.DefaultStats()); err != nil {
		return nil, err
	}
	return root, nil
}

// physical builds q's physical plan exactly as the facade's Compile does
// (default statistics, default planner options).
func (q query) physical(links int) (*plan.Physical, error) {
	root, err := q.logicalPlan(links)
	if err != nil {
		return nil, err
	}
	return plan.Build(root, q.strategy, plan.Options{})
}

func q3(name string, a, b int, w int64, s repro.Strategy) query {
	return query{name: name, strategy: s, window: w,
		node:    func() repro.Node { return src(a, w).Except(src(b, w), srcCol, srcCol) },
		logical: func() *plan.Node { return plan.NewNegate(lsrc(a, w), lsrc(b, w), lsrcCol, lsrcCol) },
	}
}

// mix16 is the registry workload's query set: eight Query-1 variants that
// share the select+join prefix, then Q2, Q3, Q4, Q6 under UPA (three of
// them written as CQL), Q2, Q3 and Q6 again under NT, and one Q2 under
// DIRECT. The queries are spread over the three links so no link is idle.
//
// Q4 and the DIRECT query run at a five-hundredth and a fiftieth of the
// window. Q4's join probes its partitioned buffers by scanning them, stale
// tuples included, and DIRECT expires by scanning its list on every tick;
// measured at the full window Q4 alone was 64 % of operator time and DIRECT
// at a fifth of the window 55 % of the pass, so the workload measured that
// query and not the registry. The workload's lazy interval is 1 % of the
// window for the same reason: state is trimmed on one registry-wide cadence,
// and at 5 % a query with a short window holds 25 windows of stale tuples.
func mix16(w int64) []query {
	var qs []query
	for i := 0; i < 8; i++ {
		qs = append(qs, q1Variant(i, 8, 0, 1, w))
	}
	qs = append(qs,
		cqlQuery("q2-upa", fmt.Sprintf("SELECT DISTINCT src FROM l2 [RANGE %d]", w), w),
		cqlQuery("q3-upa", fmt.Sprintf("SELECT * FROM l1 [RANGE %d] EXCEPT l2 [RANGE %d] ON src", w, w), w),
		q4(0, 2, w/500),
		cqlQuery("q6-upa", fmt.Sprintf("SELECT protocol, COUNT(*), SUM(payload) FROM l0 [RANGE %d] GROUP BY protocol", w), w),
		q2("q2-nt", 1, w, repro.NT),
		q3("q3-nt", 0, 1, w, repro.NT),
		q6("q6-nt", 2, w, repro.NT),
		q2("q2-direct", 0, w/50, repro.Direct),
	)
	return qs
}

// workloads returns the suite in its fixed order at its calibrated size.
func workloads() []workload { return suite(10000, 1) }

// suite builds the five workloads for a base window of w time units with
// the calibrated record counts divided by shrink (the harness's own tests
// run a small copy of the suite).
func suite(w int64, shrink int) []workload {
	ws := []workload{
		{
			name:  "q1-csv-col",
			why:   "CLI path: CSV parse in 64k chunks then columnar PushBatch(256) of Query 1; trace and tuple layers dominate, statebuf is idle",
			links: 2, window: w, lazy: w / 20, records: 393216, srcSkew: 0.5,
			grain: grainCSV, batch: 256, columnar: true,
			queries: []query{q1(0, 1, w, repro.UPA)},
		},
		{
			name:  "q5-tuple-upa",
			why:   "one Push per arrival of Query 5 pull-up: per-tuple operator chain, join+negation with premature retractions, statebuf insert/probe/expire; no parse, no ColBatch",
			links: 3, window: w, lazy: w / 20, records: 196608, srcSkew: 0.5,
			grain: grainTuple, batch: 1,
			queries: []query{q5PullUp(0, 1, 2, w)},
		},
		{
			name:  "q6-groupby-col",
			why:   "columnar PushBatch(256) of the Query 6 group-by: every arrival and expiration touches group state, so window expiry, the group-by kernel and the keyed view fold dominate; no join probing",
			links: 1, window: w, lazy: w / 20, records: 393216, srcSkew: 1.1,
			grain: grainBatch, batch: 256, columnar: true,
			queries: []query{q6("q6", 0, w, repro.UPA)},
		},
		{
			name:  "mix16-registry",
			why:   "sixteen queries (UPA, NT, DIRECT; three via CQL) on one registry with metrics, a subscriber each and a mid-pass checkpoint: fan-out, view folds, obs and checkpoint carry the cost",
			links: 3, window: w / 2, lazy: w / 200, records: 147456, srcSkew: 0.5,
			grain: grainBatch, batch: 128, registry: true,
			queries: mix16(w / 2),
		},
		{
			name:  "q4-shard2",
			why:   "Query 4 on two key-partitioned shards: routing, queue hand-off and the batch barrier of the one parallel executor, which no other workload touches",
			links: 2, window: w, lazy: w / 20, records: 393216, srcSkew: 0.5,
			grain: grainBatch, batch: 256, shards: 2,
			queries: []query{q4(0, 1, w)},
		},
	}
	for i := range ws {
		ws[i].records /= shrink
	}
	return ws
}

// repeats reports whether every timed pass must produce exactly the same
// output stream counts, not just the same answer. Duplicate elimination
// breaks that: when a representative expires the youngest live duplicate is
// promoted, so the time of each value's next promotion depends on the whole
// chain of earlier ones, and the chain can settle into a cycle that is
// longer than one pass. The answer (the result count) repeats regardless; a
// plan without duplicate elimination must repeat emitted and retracted too.
func (w workload) repeats() bool {
	repeats := true
	for _, q := range w.queries {
		root, err := q.logicalPlan(w.links)
		if err != nil {
			return false
		}
		walkPlan(root, func(n *plan.Node) {
			if n.Kind == plan.Distinct {
				repeats = false
			}
		})
	}
	return repeats
}

// walkPlan visits every node of a logical plan.
func walkPlan(n *plan.Node, visit func(*plan.Node)) {
	visit(n)
	for _, in := range n.Inputs {
		walkPlan(in, visit)
	}
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
