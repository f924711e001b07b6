package exec

import (
	"fmt"
	"slices"
	"sort"
	"strconv"

	"repro/internal/obs"
	"repro/internal/operator"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/tuple"
	"repro/internal/window"
)

// Multi-query registration: queries are compiled into one shared dataflow by
// canonicalizing every plan node into an immutable descriptor (see
// plan.ComputeDigests) keyed by operator, predicate digest, window spec,
// strategy, and update-pattern class — so pattern agreement is a sharing
// precondition by construction — plus the resolved identities of the node's
// actual inputs. Identical sub-plans across queries dedupe into one live
// record — a liveNode or liveSource holding the operator or window, its
// fan-out and the queries it serves; each arrival traverses the shared prefix
// once and deltas fan out along consumer edges to per-query views.
//
// Two deliberate non-sharing rules keep per-query results byte-identical to
// a standalone engine's:
//
//   - within one query, duplicate sub-plans are never deduped (a self-join
//     fed twice from one node would see batch-path probe order differ from
//     the standalone interleave);
//   - a query reading one stream through several windows keeps all of those
//     sources private (the per-tuple interleave across them is
//     order-sensitive).
//
// Registration and unregistration happen between runs under the same
// single-writer discipline as ingest; they are not safe to call concurrently
// with Push.

// record is what a live node and a live source share: their place in the
// shared dataflow and the queries that hold them. Registration and
// unregistration are the only writers.
type record struct {
	// outs and sinks are the fan-out: the operator input edges the record's
	// emissions feed, and the queries whose view it feeds directly (the root
	// of their plan, or the window of a bare-window plan).
	outs  []outEdge
	sinks []*queryUnit
	// holders are the live queries whose plans map onto the record, in
	// registration order. The record retires when the last one leaves.
	holders []*queryUnit
	// key is the share key registration dedups on (empty for a private
	// source); cid is the record's identity inside other records' keys.
	key string
	cid int
	// cols stages the record's columnar output run (colpath.go).
	cols *tuple.ColBatch
	// slot is the record's index in Engine.nodes or Engine.sources, set by
	// rebuildComponents; tape events name sources by it.
	slot int
}

// liveNode is one live physical operator.
type liveNode struct {
	record
	opStats
	op operator.Operator
	// eager marks operators that must expire state eagerly (Section 2.3).
	eager bool
}

// liveSource is one live window leaf.
type liveSource struct {
	record
	stream int
	schema *tuple.Schema
	win    *window.Window
	// nt marks sources built by the negative-tuple strategy: their
	// materialized windows announce expirations with explicit negative
	// tuples at eager cadence (see Engine.advance).
	nt bool
	// route, on a partitioned engine, is the stream's routing columns: a
	// row of this source belongs to partition KeyHash64(route) % parts.
	route []int
}

// outEdge is one consumer edge of the shared dataflow: emissions are fed to
// node's input side.
type outEdge struct {
	node *liveNode
	side int
}

// base hands lookup and unindex the record of a liveNode or liveSource.
func (r *record) base() *record { return r }

// retired reports whether no live query holds the record any more.
func (r *record) retired() bool { return len(r.holders) == 0 }

// release drops q from the record's holders and sinks and reports whether
// that retired it.
func (r *record) release(q *queryUnit) bool {
	r.holders = slices.DeleteFunc(r.holders, func(h *queryUnit) bool { return h == q })
	r.sinks = slices.DeleteFunc(r.sinks, func(h *queryUnit) bool { return h == q })
	return r.retired()
}

// sharedWith lists the names of the holders other than q, sorted, for
// EXPLAIN share annotations.
func (r *record) sharedWith(q *queryUnit) []string {
	var out []string
	for _, h := range r.holders {
		if h != q {
			out = append(out, h.label())
		}
	}
	sort.Strings(out)
	return out
}

// lookup returns the first record indexed under key that q does not hold
// yet: within one query, duplicate sub-plans are never shared. q is the
// query being registered, so it is the last holder of any record it holds.
func lookup[R interface{ base() *record }](index map[string][]R, key string, q *queryUnit) (R, bool) {
	for _, c := range index[key] {
		if h := c.base().holders; h[len(h)-1] != q {
			return c, true
		}
	}
	var none R
	return none, false
}

// unindex removes a retired record from its share-key index.
func unindex[R interface {
	comparable
	base() *record
}](index map[string][]R, r R) {
	key := r.base().key
	list := slices.DeleteFunc(index[key], func(c R) bool { return c == r })
	if len(list) == 0 {
		delete(index, key)
	} else {
		index[key] = list
	}
}

// queryUnit is one registered query's private state: its plan, its result
// view, the live records executing its plan, and its output instruments.
type queryUnit struct {
	id int
	// part is the partition the query computes on a partitioned engine (0
	// otherwise).
	part   int
	name   string
	phys   *plan.Physical
	fp     string // fingerprint(phys), rendered once at registration
	view   View
	onEmit func(t tuple.Tuple)
	// nodes are the records executing the plan's operators, in plan
	// pre-order (EXPLAIN's ids); srcs execute its window leaves, in
	// phys.Sources order.
	nodes []*liveNode
	srcs  []*liveSource
	// Per-query output series, registered only for named queries (an
	// unnamed single query keeps the legacy engine-wide series shape).
	emitted, retracted *obs.Counter
	latPos, latNeg     *obs.LogHistogram
	// deltaPos/deltaNeg mirror the engine-wide pending-delta counters for
	// the per-query latency flush.
	deltaPos, deltaNeg int64
	// unregistered is set by UnregisterQuery; the query's handles then
	// refuse reads.
	unregistered bool
}

// feeder returns the record of the source feeding side of pn, one of the
// query's own plan nodes, or nil.
func (q *queryUnit) feeder(pn *plan.PNode, side int) *liveSource {
	for i, s := range q.phys.Sources {
		if s.Consumer == pn && s.Side == side {
			return q.srcs[i]
		}
	}
	return nil
}

// postorder visits the query's node records children-first.
func (q *queryUnit) postorder(fn func(n *liveNode)) {
	next := 0
	var walk func(pn *plan.PNode)
	walk = func(pn *plan.PNode) {
		n := q.nodes[next]
		next++
		for _, in := range pn.Inputs {
			if in != nil {
				walk(in)
			}
		}
		fn(n)
	}
	if q.phys.Root != nil {
		walk(q.phys.Root)
	}
}

// label renders the query's display name ("q<id>" when unnamed).
func (q *queryUnit) label() string {
	if q.name != "" {
		return q.name
	}
	return fmt.Sprintf("q%d", q.id)
}

// QuerySpec describes one query to register.
type QuerySpec struct {
	// Name optionally names the query. Named queries get per-query emitted/
	// retracted counters and delta-latency series carrying a {query: name}
	// label, and appear by name in share annotations. Names must be unique
	// among live queries.
	Name string
	// Phys is the compiled physical plan (plan.Build output). The registry
	// takes ownership: the plan's operators and windows may become live
	// records other queries share. The plan itself is not rewired.
	Phys *plan.Physical
	// OnEmit, when set, observes every output delta of this query before it
	// is folded into the query's view. During a PushBatch it may run
	// concurrently with the observers of queries in other components
	// (tape.go); this query's calls never overlap and keep output order.
	OnEmit func(t tuple.Tuple)
}

// RegisterQuery compiles spec's plan into the shared dataflow and returns
// its handle. Sub-plans identical to already-registered ones (same
// descriptor, same resolved inputs) share the existing physical nodes;
// private fragments install new live records. A query registered
// after data has flowed starts with cold private state and an empty view —
// its results reflect arrivals from registration onward.
func (e *Engine) RegisterQuery(spec QuerySpec) (*QueryHandle, error) {
	if e.closed {
		return nil, ErrClosed
	}
	if e.parts > 1 {
		return nil, fmt.Errorf("exec: a partitioned engine takes no further queries")
	}
	q, err := e.install(spec, 0)
	if err != nil {
		return nil, err
	}
	return &QueryHandle{e: e, units: []*queryUnit{q}}, nil
}

// install is RegisterQuery's body. part is the partition the query computes:
// a copy of a partitioned query (part > 0) reads the windows of partition
// 0's copy, private ones included, and shares no operator with another
// partition.
func (e *Engine) install(spec QuerySpec, part int) (*queryUnit, error) {
	phys := spec.Phys
	if phys == nil {
		return nil, fmt.Errorf("exec: RegisterQuery: nil physical plan")
	}
	if spec.Name != "" {
		for _, q := range e.queries {
			if q.name == spec.Name {
				return nil, fmt.Errorf("exec: query %q already registered", spec.Name)
			}
		}
	}
	view, err := NewView(phys.View)
	if err != nil {
		return nil, err
	}
	q := &queryUnit{id: e.nextQID, part: part, name: spec.Name, phys: phys, fp: fingerprint(phys), view: view, onEmit: spec.OnEmit}
	e.nextQID++
	if spec.Name != "" {
		ql := withLabel(e.cfg.MetricLabels, "query", spec.Name)
		const latHelp = "ingest-to-emit delta latency in nanoseconds (log-bucketed)"
		q.emitted = e.reg.Counter(MetricEmitted, "positive output-stream tuples", ql)
		q.retracted = e.reg.Counter(MetricRetracted, "negative output-stream tuples", ql)
		q.latPos = e.reg.LogHistogram(MetricDeltaLatency, latHelp, withLabel(ql, "polarity", PolarityPos))
		q.latNeg = e.reg.LogHistogram(MetricDeltaLatency, latHelp, withLabel(ql, "polarity", PolarityNeg))
	}

	digests := plan.ComputeDigests(phys)

	// Sources first (the leaves). A stream read through several windows by
	// this query keeps all of them private (no key), preserving the
	// standalone per-tuple interleave.
	streamCount := map[int]int{}
	for _, s := range phys.Sources {
		streamCount[s.StreamID]++
	}
	q.srcs = make([]*liveSource, len(phys.Sources))
	for i, s := range phys.Sources {
		var key string
		if streamCount[s.StreamID] == 1 {
			key = digests.Sources[s]
		}
		var src *liveSource
		var ok bool
		if part > 0 {
			src, ok = e.queries[0].srcs[i], true
		} else {
			src, ok = lookup(e.srcIndex, key, q)
		}
		if !ok {
			src = &liveSource{record: record{key: key, cid: e.canonSeq},
				stream: s.StreamID, schema: s.Schema, win: s.Window, nt: phys.Strategy == plan.NT}
			e.canonSeq++
			e.sources = append(e.sources, src)
			if key != "" {
				e.srcIndex[key] = append(e.srcIndex[key], src)
			}
		}
		src.holders = append(src.holders, q)
		q.srcs[i] = src
	}

	// Operators, children-first, each resolved against the index after its
	// inputs; q.nodes fills in pre-order. A new record is fed by its inputs;
	// a shared one already is.
	var own []*plan.PNode // q's plan nodes, parallel to q.nodes
	var resolve func(pn *plan.PNode) *liveNode
	resolve = func(pn *plan.PNode) *liveNode {
		at := len(q.nodes)
		q.nodes, own = append(q.nodes, nil), append(own, pn)
		ins := make([]*liveNode, len(pn.Inputs))
		for i, in := range pn.Inputs {
			if in != nil {
				ins[i] = resolve(in)
			}
		}
		key := e.shareKey(q, pn, digests.Own[pn], ins)
		n, ok := lookup(e.nodeIndex, key, q)
		if !ok {
			n = &liveNode{record: record{key: key, cid: e.canonSeq}, op: pn.Op}
			e.canonSeq++
			switch pn.Op.(type) {
			case *operator.Distinct, *operator.DistinctDelta, *operator.GroupBy, *operator.Negate, *operator.Intersect:
				n.eager = true
			}
			e.nodes = append(e.nodes, n)
			e.nodeIndex[key] = append(e.nodeIndex[key], n)
			for i, in := range ins {
				if in != nil {
					in.outs = append(in.outs, outEdge{node: n, side: i})
				} else if src := q.feeder(pn, i); src != nil {
					src.outs = append(src.outs, outEdge{node: n, side: i})
				}
			}
		}
		n.holders = append(n.holders, q)
		q.nodes[at] = n
		return n
	}
	if phys.Root != nil {
		resolve(phys.Root)
	}

	// Stats cells in pre-order of the query plan, so a single-query engine's
	// operator ids match EXPLAIN's pre-order numbering. A partition's series
	// carry its shard label.
	labels := e.cfg.MetricLabels
	if e.parts > 1 {
		labels = withLabel(labels, "shard", strconv.Itoa(part))
	}
	for i, n := range q.nodes {
		if len(n.holders) == 1 { // new with this query
			n.opStats = newOpStats(e.reg, own[i], e.nextOpID, labels)
			e.nextOpID++
			if _, ok := n.op.(operator.TableOperator); ok {
				e.tables = append(e.tables, n)
			}
		}
	}

	// Sinks: the query's view hangs off its root (or, for a bare-window
	// plan, off its sources).
	if phys.Root != nil {
		q.nodes[0].sinks = append(q.nodes[0].sinks, q)
	} else {
		for i, s := range phys.Sources {
			if s.Consumer == nil {
				q.srcs[i].sinks = append(q.srcs[i].sinks, q)
			}
		}
	}

	e.queries = append(e.queries, q)
	e.rebuildComponents()
	e.recomputeColPath()
	return q, nil
}

// shareKey builds the executor-level dedup key for pn, one of q's plan
// nodes whose inputs resolved to ins: the plan descriptor's own component
// (operator, predicate digest, physical detail, strategy, pattern class) plus
// table pointer identity and the identities of the resolved inputs. Using
// resolved identities — rather than the descriptor's structural child digests
// — means a node whose child could NOT be shared (multi-window stream,
// within-query duplicate) is itself unshareable, keeping input state exactly
// per-query. The copy of a partitioned query carries its partition, so
// copies never merge.
func (e *Engine) shareKey(q *queryUnit, pn *plan.PNode, own string, ins []*liveNode) string {
	key := own
	if top, ok := pn.Op.(operator.TableOperator); ok {
		key += fmt.Sprintf("|tbl#%d", e.tableID(top.Table()))
	}
	if q.part > 0 {
		key += fmt.Sprintf("|part#%d", q.part)
	}
	key += "["
	for i, in := range ins {
		if i > 0 {
			key += ","
		}
		if in != nil {
			key += fmt.Sprintf("n%d", in.cid)
		} else if src := q.feeder(pn, i); src != nil {
			key += fmt.Sprintf("s%d", src.cid)
		} else {
			key += "t" // table-only edge: identity carried by tbl# above
		}
	}
	return key + "]"
}

// tableID returns a stable per-engine ordinal for a table pointer, so nodes
// over same-named but distinct tables never share.
func (e *Engine) tableID(tbl *relation.Table) int {
	id := slices.Index(e.tableIDs, tbl)
	if id < 0 {
		id = len(e.tableIDs)
		e.tableIDs = append(e.tableIDs, tbl)
	}
	return id
}

// recomputeColPath re-derives the columnar fast-path gate after a
// registration change. The data-driven demotion latch survives: once an
// arrival has planted row-form state no registration change can make the
// kernels safe again. A partitioned engine stays on the row chain: a
// columnar run would flow on the caller, past the routing of the tape.
func (e *Engine) recomputeColPath() {
	e.colOK = e.parts == 1 && !e.cfg.NoColumnar && !e.colDemoted && e.colPlanSupported()
	if e.colOK {
		e.initColPath()
	}
}

// UnregisterQuery removes a registered query: it leaves the holders of every
// record its plan maps onto, the records left with no holder retire from the
// dataflow (their state buffers are left to the collector, their windows are
// discarded), and the query's view is dropped. It returns the number of
// stored tuples freed (retired operator state, retired window contents, and
// the view).
func (e *Engine) UnregisterQuery(h *QueryHandle) (freed int, err error) {
	if e.closed {
		return 0, ErrClosed
	}
	if h == nil || h.e != e {
		return 0, fmt.Errorf("exec: UnregisterQuery: handle does not belong to this engine")
	}
	if e.parts > 1 {
		return 0, fmt.Errorf("exec: a partitioned engine's queries are its partitions; they do not unregister")
	}
	q := h.first()
	idx := slices.Index(e.queries, q)
	if idx < 0 {
		return 0, fmt.Errorf("exec: query %s is not registered", q.label())
	}

	freed += q.view.Len()
	for _, n := range q.nodes {
		if n.release(q) {
			freed += n.op.StateSize()
			n.state.Set(0)
			unindex(e.nodeIndex, n)
		}
	}
	for _, s := range q.srcs {
		if s.release(q) {
			freed += s.win.Len()
			s.win.Discard()
			unindex(e.srcIndex, s)
		}
	}
	e.nodes = slices.DeleteFunc(e.nodes, (*liveNode).retired)
	e.tables = slices.DeleteFunc(e.tables, (*liveNode).retired)
	e.sources = slices.DeleteFunc(e.sources, (*liveSource).retired)
	// Only the query's own records can feed a node it retired.
	intoRetired := func(ed outEdge) bool { return ed.node.retired() }
	for _, n := range q.nodes {
		n.outs = slices.DeleteFunc(n.outs, intoRetired)
	}
	for _, s := range q.srcs {
		s.outs = slices.DeleteFunc(s.outs, intoRetired)
	}

	e.queries = slices.Delete(e.queries, idx, idx+1)
	q.unregistered = true
	e.rebuildComponents()
	e.recomputeColPath()
	e.refreshStateGauges()
	return freed, nil
}

// SharingStats summarize how much of the registered plans the registry
// deduplicated.
type SharingStats struct {
	// Queries is the number of live registered queries.
	Queries int
	// PlanNodes/PlanSources count plan nodes and window sources summed over
	// every registered query's plan; LiveNodes/LiveSources count the
	// live records actually executing them.
	PlanNodes, LiveNodes     int
	PlanSources, LiveSources int
	// SharedNodes/SharedSources count live records held by more
	// than one query.
	SharedNodes, SharedSources int
	// Components counts the connected components of the live dataflow:
	// queries that share no operator fall in different components, and a
	// PushBatch replays different components on different cores. A registry
	// of one component ingests on one core.
	Components int
}

// Ratio is plan size over live size (1 = no sharing; N = every node serves
// N queries on average).
func (s SharingStats) Ratio() float64 {
	live := s.LiveNodes + s.LiveSources
	if live == 0 {
		return 1
	}
	return float64(s.PlanNodes+s.PlanSources) / float64(live)
}

// Sharing returns the registry's current sharing statistics.
func (e *Engine) Sharing() SharingStats {
	s := SharingStats{
		Queries:     len(e.queries) / e.parts, // partitions are one query
		LiveNodes:   len(e.nodes),
		LiveSources: len(e.sources),
		Components:  len(e.comps),
	}
	for _, q := range e.queries {
		s.PlanNodes += len(q.nodes)
		s.PlanSources += len(q.srcs)
	}
	for _, n := range e.nodes {
		if len(n.holders) > 1 {
			s.SharedNodes++
		}
	}
	for _, src := range e.sources {
		if len(src.holders) > 1 {
			s.SharedSources++
		}
	}
	return s
}
