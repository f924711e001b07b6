package exec

import (
	"fmt"
	"io"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/tuple"
)

// QueryHandle is the one read surface of a query: its answer, plan, counters
// and checkpoint. It spans the query's units — the one registered unit, or
// every partition of a partitioned engine, whose views together hold the
// answer — and its reads merge them: rows by bag union, counts by sum,
// operator counters by plan position. After UnregisterQuery the handle's
// error-returning reads fail, naming the query.
type QueryHandle struct {
	e     *Engine
	units []*queryUnit
}

// Queries returns one handle per registered query, in registration order: a
// partitioned engine's partitions are one query.
func (e *Engine) Queries() []*QueryHandle {
	if e.parts > 1 {
		return []*QueryHandle{{e: e, units: e.queries}}
	}
	out := make([]*QueryHandle, len(e.queries))
	for i, q := range e.queries {
		out[i] = &QueryHandle{e: e, units: []*queryUnit{q}}
	}
	return out
}

// first is the unit that stands for the query's plan: all units run copies
// of it.
func (h *QueryHandle) first() *queryUnit { return h.units[0] }

// live fails once the query is unregistered.
func (h *QueryHandle) live() error {
	if h.first().unregistered {
		return fmt.Errorf("exec: query %s is not registered", h.Name())
	}
	return nil
}

// Sync syncs the engine for a read of this query; it fails once the query is
// unregistered.
func (h *QueryHandle) Sync() error {
	if err := h.live(); err != nil {
		return err
	}
	return h.e.Sync()
}

// Name returns the query's name ("q<id>" when registered unnamed).
func (h *QueryHandle) Name() string { return h.first().label() }

// ID returns the query's registration ordinal (unique per engine, never
// reused).
func (h *QueryHandle) ID() int { return h.first().id }

// View returns the query's materialized result view, or nil on a partitioned
// engine, whose answer is spread over its partitions' views (read it with
// Snapshot or LookupKey).
func (h *QueryHandle) View() View {
	if len(h.units) > 1 {
		return nil
	}
	return h.first().view
}

// Snapshot syncs the engine and returns the query's current result
// multiset.
func (h *QueryHandle) Snapshot() ([]tuple.Tuple, error) {
	if err := h.Sync(); err != nil {
		return nil, err
	}
	var out []tuple.Tuple
	for _, q := range h.units {
		out = append(out, q.view.Snapshot()...)
	}
	return out, nil
}

// ResultCount syncs the engine and returns the query's current result
// cardinality.
func (h *QueryHandle) ResultCount() (int, error) {
	if err := h.Sync(); err != nil {
		return 0, err
	}
	n := 0
	for _, q := range h.units {
		n += q.view.Len()
	}
	return n, nil
}

// LookupKey returns the query's result rows under k as of the last Sync;
// ok is false when its view structure has no keyed access path.
func (h *QueryHandle) LookupKey(k tuple.Key) ([]tuple.Tuple, bool) {
	var out []tuple.Tuple
	for _, q := range h.units {
		lv, ok := q.view.(keyedLookup)
		if !ok {
			return nil, false
		}
		rows, ok := lv.LookupKey(k)
		if !ok {
			return nil, false
		}
		out = append(out, rows...)
	}
	return out, true
}

// SetOnEmit replaces the query's emit observer (nil disables it). Like
// registration itself, this must not race with ingest.
func (h *QueryHandle) SetOnEmit(fn func(t tuple.Tuple)) {
	for _, q := range h.units {
		q.onEmit = fn
	}
}

// Schema returns the query's output schema.
func (h *QueryHandle) Schema() *tuple.Schema { return h.first().phys.Schema }

// Pattern returns the update-pattern class of the query's output stream.
func (h *QueryHandle) Pattern() core.Pattern { return h.first().phys.Pattern }

// Strategy returns the execution strategy the query was compiled under.
func (h *QueryHandle) Strategy() plan.Strategy { return h.first().phys.Strategy }

// DeltaLatency returns the query's ingest→emit latency snapshots. Named
// queries report their private series; an unnamed query reports the
// engine-wide distribution (identical for a single-query engine).
func (h *QueryHandle) DeltaLatency() (pos, neg obs.LogHistogramSnapshot) {
	if q := h.first(); q.latPos != nil {
		return q.latPos.Snapshot(), q.latNeg.Snapshot()
	}
	return h.e.DeltaLatency()
}

// Profile returns the query's per-operator runtime counters in pre-order of
// its plan (root first) — an EXPLAIN ANALYZE for continuous queries: which
// edges carry retractions, where state lives, and which structures do the
// touching. Rows for shared operators report the shared node's counters —
// the physical work, summed over every query it serves. The partitions of a
// partitioned engine merge by plan position: counters, times and state sum,
// and the observed class is the strongest. The ID field is the row's
// pre-order position in this query's plan (matching its EXPLAIN ids); only
// for the engine's first query does it also match the "id" metric label.
// Every field is read with atomic loads, so Profile is safe to call from
// another goroutine (e.g. the /debug/plan page) while the engine runs.
func (h *QueryHandle) Profile() []OpProfile {
	parts := make([][]OpProfile, len(h.units))
	for i, q := range h.units {
		parts[i] = profileQuery(q)
	}
	return mergeProfiles(parts)
}

// WriteProfile renders Profile as an aligned tree, one per partition on a
// partitioned engine.
func (h *QueryHandle) WriteProfile(w io.Writer) error {
	if err := h.e.catchUp(); err != nil {
		return err
	}
	if len(h.units) == 1 {
		return writeProfiles(w, h.Profile())
	}
	for _, q := range h.units {
		if _, err := fmt.Fprintf(w, "shard %d:\n", q.part); err != nil {
			return err
		}
		if err := writeProfiles(w, profileQuery(q)); err != nil {
			return err
		}
	}
	return nil
}

// Explain returns the query's renderable plan tree; with analyze set, each
// operator node carries its live counters (EXPLAIN ANALYZE), read with
// atomic loads, so calling it while the engine runs is safe. A registered
// query's tree is annotated with the registry's sharing verdicts: every node
// carries its canonical share key, and nodes executed by a physical operator
// other queries also map onto list those queries in SharedWith ("shared
// with q1,q3" in the text rendering). A partitioned query renders its plan
// once, with the partitions' counters merged (see Profile).
func (h *QueryHandle) Explain(analyze bool) *plan.ExplainTree {
	if len(h.units) == 1 {
		return h.e.explainQuery(h.first(), analyze)
	}
	t := plan.Explain(h.first().phys)
	if analyze {
		attachStats(t, h.Profile(), len(h.units), h.e.Clock(), h.e.Watermark())
	}
	return t
}

// Checkpoint writes the query's state in the standalone single-engine
// format: the header, then one state section per unit, after replaying what
// a partitioned engine's tape still holds. The stream restores into a plain
// engine built from the same plan at the same partition count (Open and
// Restore). A registered query's section is written through its records,
// so it carries exactly the windows, operator state and view this query
// observes. Checkpointing does not force pending maintenance: cursors
// travel with the state, so a restored engine resumes the exact maintenance
// schedule, and checkpointing never perturbs the run it snapshots.
// Cumulative counters are engine-wide (per-query counters exist only as
// metric series), so an extracted query's Stats over-report if other queries
// were registered.
func (h *QueryHandle) Checkpoint(w io.Writer) error {
	if err := h.live(); err != nil {
		return err
	}
	e := h.e
	if err := e.catchUp(); err != nil {
		return err
	}
	var start time.Time
	if e.timed {
		start = time.Now()
	}
	enc := checkpoint.NewEncoder(w)
	if err := writeHeader(enc, h.first(), len(h.units), e.clock); err != nil {
		return err
	}
	for _, q := range h.units {
		if err := e.writeState(enc, q); err != nil {
			return err
		}
	}
	e.checkpointed(start, enc.Bytes())
	return nil
}
