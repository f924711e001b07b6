package exec

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/operator"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/statebuf"
	"repro/internal/tuple"
)

// Multi-query registration: queries are compiled into one shared dataflow by
// canonicalizing every plan node into an immutable descriptor (see
// plan.ComputeDigests) keyed by operator, predicate digest, window spec,
// strategy, and update-pattern class — so pattern agreement is a sharing
// precondition by construction — plus the resolved identities of the node's
// actual inputs. Identical sub-plans across queries dedupe into one physical
// node with a refcounted state buffer; each arrival traverses the shared
// prefix once and deltas fan out along consumer edges to per-query views.
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

// srcCell is the executor's per-source cell, cached in PSource.Scratch: the
// consumer fan-out edges, the queries whose view the source feeds directly
// (bare-window plans), and the expiry policy of the strategy that built it.
type srcCell struct {
	outs  []outEdge
	sinks []*queryUnit
	// nt marks sources built by the negative-tuple strategy: their
	// materialized windows announce expirations with explicit negative
	// tuples at eager cadence (see Engine.advance).
	nt bool
}

// queryUnit is one registered query's private state: its plan, its result
// view, the mapping from its own plan nodes onto the canonical shared nodes,
// and its output instruments.
type queryUnit struct {
	id     int
	name   string
	phys   *plan.Physical
	view   View
	onEmit func(t tuple.Tuple)
	// nodeMap/srcMap map the query's own plan nodes (the keys, from its
	// private Build) to the canonical nodes executing them. Adopted nodes
	// map to themselves.
	nodeMap map[*plan.PNode]*plan.PNode
	srcMap  map[*plan.PSource]*plan.PSource
	// Per-query output series, registered only for named queries (an
	// unnamed single query keeps the legacy engine-wide series shape).
	emitted, retracted *obs.Counter
	latPos, latNeg     *obs.LogHistogram
	// deltaPos/deltaNeg mirror the engine-wide pending-delta counters for
	// the per-query latency flush.
	deltaPos, deltaNeg int64
}

// canon maps one of the query's plan nodes to the canonical node executing
// it. Nodes under a shared subtree are already canonical (registration
// rewires input pointers), so an unmapped node maps to itself.
func (q *queryUnit) canon(pn *plan.PNode) *plan.PNode {
	if c, ok := q.nodeMap[pn]; ok {
		return c
	}
	return pn
}

// canonSrc is canon for window leaves.
func (q *queryUnit) canonSrc(s *plan.PSource) *plan.PSource {
	if c, ok := q.srcMap[s]; ok {
		return c
	}
	return s
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
	// takes ownership: the plan's nodes may become canonical shared nodes.
	Phys *plan.Physical
	// OnEmit, when set, observes every output delta of this query before it
	// is folded into the query's view.
	OnEmit func(t tuple.Tuple)
}

// QueryHandle is the per-query surface of a multi-query engine.
type QueryHandle struct {
	e *Engine
	q *queryUnit
}

// RegisterQuery compiles spec's plan into the shared dataflow and returns
// its handle. Sub-plans identical to already-registered ones (same
// descriptor, same resolved inputs) share the existing physical nodes;
// private fragments are adopted as new canonical nodes. A query registered
// after data has flowed starts with cold private state and an empty view —
// its results reflect arrivals from registration onward.
func (e *Engine) RegisterQuery(spec QuerySpec) (*QueryHandle, error) {
	if e.closed {
		return nil, ErrClosed
	}
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
	q := &queryUnit{
		id: e.nextQID, name: spec.Name, phys: phys, view: view, onEmit: spec.OnEmit,
		nodeMap: make(map[*plan.PNode]*plan.PNode),
		srcMap:  make(map[*plan.PSource]*plan.PSource),
	}
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
	// this query keeps all of them private, preserving the standalone
	// per-tuple interleave.
	streamCount := map[int]int{}
	for _, s := range phys.Sources {
		streamCount[s.StreamID]++
	}
	usedSrc := map[*plan.PSource]bool{}
	for _, s := range phys.Sources {
		dg := digests.Sources[s]
		shareable := streamCount[s.StreamID] == 1
		var canon *plan.PSource
		if shareable {
			for _, cand := range e.srcByKey[dg] {
				if !usedSrc[cand] {
					canon = cand
					break
				}
			}
		}
		if canon != nil {
			e.srcRefs[canon].Acquire()
		} else {
			canon = s
			s.Scratch = &srcCell{nt: phys.Strategy == plan.NT}
			e.sources = append(e.sources, s)
			e.srcRefs[s] = statebuf.NewRefCount()
			e.canonID[s] = e.canonSeq
			e.canonSeq++
			if shareable {
				e.srcByKey[dg] = append(e.srcByKey[dg], s)
				e.srcKey[s] = dg
			}
		}
		usedSrc[canon] = true
		q.srcMap[s] = canon
	}

	// srcEdge locates, for each of the query's own operators, the own source
	// feeding each source-fed input side.
	srcEdge := map[*plan.PNode]map[int]*plan.PSource{}
	for _, s := range phys.Sources {
		if s.Consumer == nil {
			continue
		}
		m := srcEdge[s.Consumer]
		if m == nil {
			m = map[int]*plan.PSource{}
			srcEdge[s.Consumer] = m
		}
		m[s.Side] = s
	}

	// Operators, children-first: resolve each node against the canonical map
	// (skipping candidates already used by this query — within-query sharing
	// is forbidden), rewiring input pointers to canonical children as we go.
	usedNode := map[*plan.PNode]bool{}
	var adoptedPost []*plan.PNode
	var resolve func(pn *plan.PNode) *plan.PNode
	resolve = func(pn *plan.PNode) *plan.PNode {
		for i, in := range pn.Inputs {
			if in != nil {
				pn.Inputs[i] = resolve(in)
			}
		}
		key := e.shareKey(pn, digests, srcEdge, q)
		var canon *plan.PNode
		for _, cand := range e.nodeByKey[key] {
			if !usedNode[cand] {
				canon = cand
				break
			}
		}
		if canon != nil {
			e.nodeRefs[canon].Acquire()
		} else {
			canon = pn
			e.nodeKey[pn] = key
			e.nodeByKey[key] = append(e.nodeByKey[key], pn)
			e.nodeRefs[pn] = statebuf.NewRefCount()
			e.canonID[pn] = e.canonSeq
			e.canonSeq++
			e.order = append(e.order, pn)
			adoptedPost = append(adoptedPost, pn)
			switch pn.Op.(type) {
			case *operator.Distinct, *operator.DistinctDelta, *operator.GroupBy, *operator.Negate, *operator.Intersect:
				e.eager[pn] = true
			}
		}
		usedNode[canon] = true
		q.nodeMap[pn] = canon
		return canon
	}
	if phys.Root != nil {
		resolve(phys.Root)
	}

	// Stats cells in pre-order of the query plan, so a single-query engine's
	// operator ids match the legacy pre-order numbering (and EXPLAIN's).
	var preorder func(pn *plan.PNode)
	preorder = func(pn *plan.PNode) {
		if pn == nil {
			return
		}
		if q.nodeMap[pn] == pn && e.ops[pn] == nil {
			e.ops[pn] = newOpStats(e.reg, pn, e.nextOpID, e.cfg.MetricLabels)
			e.nextOpID++
			if _, ok := pn.Op.(operator.TableOperator); ok {
				e.tables = append(e.tables, pn)
			}
		}
		for _, c := range pn.Inputs {
			preorder(c)
		}
	}
	preorder(phys.Root)

	// Consumer edges: every adopted node is fed by its canonical inputs.
	// Shared nodes need no new in-edges — their canonical inputs already
	// feed them.
	for _, pn := range adoptedPost {
		for i, c := range pn.Inputs {
			if c != nil {
				st := e.ops[c]
				st.outs = append(st.outs, outEdge{node: pn, side: i})
			}
		}
		for side, s := range srcEdge[pn] {
			canonSrc := q.srcMap[s]
			cell := canonSrc.Scratch.(*srcCell)
			cell.outs = append(cell.outs, outEdge{node: pn, side: side})
		}
	}

	// Sinks: the query's view hangs off its canonical root (or, for a
	// bare-window plan, off its canonical sources).
	if phys.Root != nil {
		st := e.ops[q.nodeMap[phys.Root]]
		st.sinks = append(st.sinks, q)
	} else {
		for _, s := range phys.Sources {
			if s.Consumer == nil {
				cell := q.srcMap[s].Scratch.(*srcCell)
				cell.sinks = append(cell.sinks, q)
			}
		}
	}

	e.queries = append(e.queries, q)
	if len(e.queries) == 1 {
		e.phys, e.view = q.phys, q.view
	}
	e.rebuildMaintenance()
	e.recomputeColPath()
	return &QueryHandle{e: e, q: q}, nil
}

// shareKey builds the executor-level dedup key for one of the registering
// query's nodes: the plan descriptor's own component (operator, predicate
// digest, physical detail, strategy, pattern class) plus table pointer
// identity and the canonical identities of the node's resolved inputs. Using
// resolved identities — rather than the descriptor's structural child
// digests — means a node whose child could NOT be shared (multi-window
// stream, within-query duplicate) is itself unshareable, keeping input state
// exactly per-query.
func (e *Engine) shareKey(pn *plan.PNode, digests *plan.Digests, srcEdge map[*plan.PNode]map[int]*plan.PSource, q *queryUnit) string {
	key := digests.Own[pn]
	if top, ok := pn.Op.(operator.TableOperator); ok {
		key += fmt.Sprintf("|tbl#%d", e.tableID(top.Table()))
	}
	key += "["
	for i := range pn.Inputs {
		if i > 0 {
			key += ","
		}
		switch {
		case pn.Inputs[i] != nil:
			key += fmt.Sprintf("n%d", e.canonID[pn.Inputs[i]])
		case srcEdge[pn][i] != nil:
			key += fmt.Sprintf("s%d", e.canonID[q.srcMap[srcEdge[pn][i]]])
		default:
			key += "t" // table-only edge: identity carried by tbl# above
		}
	}
	return key + "]"
}

// tableID returns a stable per-engine ordinal for a table pointer, so nodes
// over same-named but distinct tables never share.
func (e *Engine) tableID(tbl *relation.Table) int {
	id, ok := e.tableIDs[tbl]
	if !ok {
		id = len(e.tableIDs)
		e.tableIDs[tbl] = id
	}
	return id
}

// rebuildMaintenance re-partitions e.order into the eager and lazy
// maintenance passes (order is children-first by construction: canonical
// nodes append in post-order per registration, and shared prefixes were
// appended by earlier registrations).
func (e *Engine) rebuildMaintenance() {
	e.eagerNodes = e.eagerNodes[:0]
	e.lazyNodes = e.lazyNodes[:0]
	for _, pn := range e.order {
		if e.eager[pn] {
			e.eagerNodes = append(e.eagerNodes, pn)
		} else {
			e.lazyNodes = append(e.lazyNodes, pn)
		}
	}
}

// recomputeColPath re-derives the columnar fast-path gate after a
// registration change. The data-driven demotion latch survives: once an
// arrival has planted row-form state no registration change can make the
// kernels safe again.
func (e *Engine) recomputeColPath() {
	e.colOK = !e.cfg.NoColumnar && !e.colDemoted && e.colPlanSupported()
	if e.colOK {
		e.initColPath()
	}
}

// UnregisterQuery removes a registered query: its references on shared nodes
// are released, orphaned nodes are retired from the dataflow (their state
// buffers are left to the collector), retired window sources are discarded,
// and the query's view is dropped.
// It returns the number of stored tuples freed (retired operator state,
// retired window contents, and the view).
func (e *Engine) UnregisterQuery(h *QueryHandle) (freed int, err error) {
	if e.closed {
		return 0, ErrClosed
	}
	if h == nil || h.e != e {
		return 0, fmt.Errorf("exec: UnregisterQuery: handle does not belong to this engine")
	}
	q := h.q
	idx := -1
	for i, cand := range e.queries {
		if cand == q {
			idx = i
			break
		}
	}
	if idx < 0 {
		return 0, fmt.Errorf("exec: query %s is not registered", q.label())
	}

	freed += q.view.Len()

	retiredN := map[*plan.PNode]bool{}
	for _, canon := range q.nodeMap {
		if e.nodeRefs[canon].Release() == 0 {
			retiredN[canon] = true
		}
	}
	retiredS := map[*plan.PSource]bool{}
	for _, canon := range q.srcMap {
		if e.srcRefs[canon].Release() == 0 {
			retiredS[canon] = true
		}
	}

	for pn := range retiredN {
		st := e.ops[pn]
		freed += pn.Op.StateSize()
		st.state.Set(0)
		delete(e.ops, pn)
		if key, ok := e.nodeKey[pn]; ok {
			e.nodeByKey[key] = removeNode(e.nodeByKey[key], pn)
			if len(e.nodeByKey[key]) == 0 {
				delete(e.nodeByKey, key)
			}
			delete(e.nodeKey, pn)
		}
		delete(e.nodeRefs, pn)
		delete(e.canonID, pn)
		delete(e.eager, pn)
		delete(e.colOut, pn)
	}
	for s := range retiredS {
		freed += s.Window.Len()
		s.Window.Discard()
		if key, ok := e.srcKey[s]; ok {
			e.srcByKey[key] = removeSource(e.srcByKey[key], s)
			if len(e.srcByKey[key]) == 0 {
				delete(e.srcByKey, key)
			}
			delete(e.srcKey, s)
		}
		delete(e.srcRefs, s)
		delete(e.canonID, s)
		delete(e.colSrc, s)
	}

	if len(retiredN) > 0 {
		e.order = filterNodes(e.order, retiredN)
		e.tables = filterNodes(e.tables, retiredN)
	}
	if len(retiredS) > 0 {
		live := e.sources[:0]
		for _, s := range e.sources {
			if !retiredS[s] {
				live = append(live, s)
			}
		}
		e.sources = live
	}

	// Sweep surviving cells: drop edges into retired nodes and this query's
	// sink entries.
	for _, s := range e.sources {
		cell := s.Scratch.(*srcCell)
		cell.outs = filterEdges(cell.outs, retiredN)
		cell.sinks = removeSink(cell.sinks, q)
	}
	for _, pn := range e.order {
		st := e.ops[pn]
		st.outs = filterEdges(st.outs, retiredN)
		st.sinks = removeSink(st.sinks, q)
	}

	e.queries = append(e.queries[:idx], e.queries[idx+1:]...)
	if len(e.queries) > 0 {
		e.phys, e.view = e.queries[0].phys, e.queries[0].view
	} else {
		e.phys, e.view = nil, nil
	}
	e.rebuildMaintenance()
	e.recomputeColPath()
	e.refreshStateGauges()
	return freed, nil
}

func removeNode(list []*plan.PNode, n *plan.PNode) []*plan.PNode {
	out := list[:0]
	for _, cand := range list {
		if cand != n {
			out = append(out, cand)
		}
	}
	return out
}

func removeSource(list []*plan.PSource, s *plan.PSource) []*plan.PSource {
	out := list[:0]
	for _, cand := range list {
		if cand != s {
			out = append(out, cand)
		}
	}
	return out
}

func filterNodes(list []*plan.PNode, drop map[*plan.PNode]bool) []*plan.PNode {
	out := list[:0]
	for _, n := range list {
		if !drop[n] {
			out = append(out, n)
		}
	}
	return out
}

func filterEdges(list []outEdge, drop map[*plan.PNode]bool) []outEdge {
	out := list[:0]
	for _, ed := range list {
		if !drop[ed.node] {
			out = append(out, ed)
		}
	}
	return out
}

func removeSink(list []*queryUnit, q *queryUnit) []*queryUnit {
	out := list[:0]
	for _, cand := range list {
		if cand != q {
			out = append(out, cand)
		}
	}
	return out
}

// Queries returns handles for the live registered queries, in registration
// order.
func (e *Engine) Queries() []*QueryHandle {
	out := make([]*QueryHandle, len(e.queries))
	for i, q := range e.queries {
		out[i] = &QueryHandle{e: e, q: q}
	}
	return out
}

// Name returns the query's name ("q<id>" when registered unnamed).
func (h *QueryHandle) Name() string { return h.q.label() }

// ID returns the query's registration ordinal (unique per engine, never
// reused).
func (h *QueryHandle) ID() int { return h.q.id }

// View returns the query's materialized result view.
func (h *QueryHandle) View() View { return h.q.view }

// Snapshot syncs the engine and returns the query's current result
// multiset.
func (h *QueryHandle) Snapshot() ([]tuple.Tuple, error) {
	if err := h.e.Sync(); err != nil {
		return nil, err
	}
	return h.q.view.Snapshot(), nil
}

// ResultCount syncs the engine and returns the query's current result
// cardinality.
func (h *QueryHandle) ResultCount() (int, error) {
	if err := h.e.Sync(); err != nil {
		return 0, err
	}
	return h.q.view.Len(), nil
}

// SetOnEmit replaces the query's emit observer (nil disables it). Like
// registration itself, this must not race with ingest.
func (h *QueryHandle) SetOnEmit(fn func(t tuple.Tuple)) { h.q.onEmit = fn }

// Schema returns the query's output schema.
func (h *QueryHandle) Schema() *tuple.Schema { return h.q.phys.Schema }

// Pattern returns the update-pattern class of the query's output stream.
func (h *QueryHandle) Pattern() core.Pattern { return h.q.phys.Pattern }

// Strategy returns the execution strategy the query was compiled under.
func (h *QueryHandle) Strategy() plan.Strategy { return h.q.phys.Strategy }

// DeltaLatency returns the query's ingest→emit latency snapshots. Named
// queries report their private series; an unnamed query reports the
// engine-wide distribution (identical for a single-query engine).
func (h *QueryHandle) DeltaLatency() (pos, neg obs.LogHistogramSnapshot) {
	if h.q.latPos != nil {
		return h.q.latPos.Snapshot(), h.q.latNeg.Snapshot()
	}
	return h.e.DeltaLatency()
}

// SharingStats summarize how much of the registered plans the registry
// deduplicated.
type SharingStats struct {
	// Queries is the number of live registered queries.
	Queries int
	// PlanNodes/PlanSources count plan nodes and window sources summed over
	// every registered query's plan; LiveNodes/LiveSources count the
	// canonical physical nodes actually executing them.
	PlanNodes, LiveNodes     int
	PlanSources, LiveSources int
	// SharedNodes/SharedSources count canonical nodes referenced by more
	// than one query.
	SharedNodes, SharedSources int
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
		Queries:     len(e.queries),
		LiveNodes:   len(e.order),
		LiveSources: len(e.sources),
	}
	for _, q := range e.queries {
		s.PlanNodes += len(q.nodeMap)
		s.PlanSources += len(q.srcMap)
	}
	for _, rc := range e.nodeRefs {
		if rc.Count() > 1 {
			s.SharedNodes++
		}
	}
	for _, rc := range e.srcRefs {
		if rc.Count() > 1 {
			s.SharedSources++
		}
	}
	return s
}

// sharedWith lists the names of live queries other than q whose plans map
// onto canonical node canon, sorted, for EXPLAIN share annotations.
func (e *Engine) sharedWith(canon *plan.PNode, q *queryUnit) []string {
	var out []string
	for _, other := range e.queries {
		if other == q {
			continue
		}
		for _, c := range other.nodeMap {
			if c == canon {
				out = append(out, other.label())
				break
			}
		}
	}
	sort.Strings(out)
	return out
}

// sharedWithSource is sharedWith for window leaves.
func (e *Engine) sharedWithSource(canon *plan.PSource, q *queryUnit) []string {
	var out []string
	for _, other := range e.queries {
		if other == q {
			continue
		}
		for _, c := range other.srcMap {
			if c == canon {
				out = append(out, other.label())
				break
			}
		}
	}
	sort.Strings(out)
	return out
}
