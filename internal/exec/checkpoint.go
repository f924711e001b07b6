package exec

import (
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/obs"
	"repro/internal/operator"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/tuple"
)

// This file implements engine-level checkpoint and restore on top of the
// internal/checkpoint wire format. A checkpoint is one stream:
//
//	magic+version (checkpoint.Encoder.Begin)
//	plan fingerprint (string)
//	section count (uvarint): the number of partitions, 1 when unpartitioned
//	clock (varint)
//	table section: count, then per unique table its name and contents
//	per partition, in partition order: one engine state section
//
// A partition's section holds its slice of each shared window (the rows its
// route selects), its operators and its view; the engine-wide counts travel
// in section 0 and are zero in the others. The reader merges the window
// slices in (TS, section) order, so a checkpoint of the earlier shard
// coordinator, whose sections were whole engines over their own windows,
// restores through the same code.
//
// The fingerprint pins everything a checkpoint is NOT allowed to carry
// across: execution strategy, update-pattern class, view structure, output
// schema, and the full operator tree (ids and parameterized names). Restore
// validates the fingerprint and the section count before touching any
// state, so a mismatched restore leaves the engine exactly as it was.
//
// Configuration never travels in a checkpoint: windows, state-buffer
// choices, and operator wiring are rebuilt from the plan, and only dynamic
// state (clocks, cursors, counters, stored tuples) is serialized. A
// checkpoint therefore restores only into an engine built from the same
// query, strategy, options, and partition count.

// fingerprint renders the plan identity a checkpoint must match: strategy,
// root pattern, view structure, output schema, and the pre-order operator
// tree with source leaves (ids and parameterized names, exactly as EXPLAIN
// prints them).
func fingerprint(p *plan.Physical) string {
	t := plan.Explain(p)
	var b strings.Builder
	fmt.Fprintf(&b, "strategy=%v;pattern=%v;view=%s;schema=%s",
		t.Strategy, t.Pattern, t.View, p.Schema.String())
	t.Walk(func(n *plan.ExplainNode) {
		fmt.Fprintf(&b, ";%d:%s", n.ID, n.Name)
	})
	return b.String()
}

// uniqueTables lists the distinct tables the nodes consume (a plan's or a
// registry's table readers), deduplicated by pointer, in node order. The
// partitions of a query share table pointers (they rebuild the plan from the
// same logical tree), and so do registered queries, so table contents are
// written once per checkpoint regardless of partition or query count.
func uniqueTables(nodes []*plan.PNode) []*relation.Table {
	var out []*relation.Table
	for _, pn := range nodes {
		top, ok := pn.Op.(operator.TableOperator)
		if ok && !slices.Contains(out, top.Table()) {
			out = append(out, top.Table())
		}
	}
	return out
}

// writeTables writes the table section: the count, then each table's name
// and contents.
func writeTables(enc *checkpoint.Encoder, tables []*relation.Table) error {
	enc.Uvarint(uint64(len(tables)))
	for _, t := range tables {
		enc.String(t.Name())
		if err := t.SaveState(enc); err != nil {
			return err
		}
	}
	return enc.Err()
}

// readTables is writeTables' mirror into the same tables, refusing a section
// that names others.
func readTables(dec *checkpoint.Decoder, tables []*relation.Table) error {
	n := dec.Count()
	if err := dec.Err(); err != nil {
		return err
	}
	if n != len(tables) {
		return &checkpoint.MismatchError{
			Field: "tables", Want: strconv.Itoa(len(tables)), Got: strconv.Itoa(n),
		}
	}
	for _, t := range tables {
		name := dec.String()
		if err := dec.Err(); err != nil {
			return err
		}
		if name != t.Name() {
			return &checkpoint.MismatchError{Field: "table", Want: t.Name(), Got: name}
		}
		if err := t.LoadState(dec); err != nil {
			return err
		}
	}
	return dec.Err()
}

// counterList returns the engine's cumulative counters in the fixed order
// they are serialized; SaveState and LoadState must agree on it.
func (e *Engine) counterList() []counterCell {
	return []counterCell{
		e.met.arrivals, e.met.emitted, e.met.retracted, e.met.windowNegatives,
		e.met.eagerPasses, e.met.lazyPasses, e.met.tableUpdates, e.met.viewExpired,
	}
}

// counterCell is the slice of the obs.Counter API the checkpoint needs.
type counterCell interface {
	Add(n int64)
	Value() int64
}

// writeState serializes the dynamic state query q observes in this engine:
// window contents in source order (q's partition of them on a partitioned
// engine), operator state in plan pre-order, and the result view, between
// writeSections' preamble and trailer. It reads through q's records, so the
// section a registry extracts for one of several queries is laid out as a
// single-query engine's own.
func (e *Engine) writeState(enc *checkpoint.Encoder, q *queryUnit) error {
	return e.writeSections(enc, q.part, q.srcs, q.nodes, []*queryUnit{q})
}

// writeSections writes one engine state section: clock and maintenance
// cursors, cumulative counters and the state peak; then the given windows,
// operators and views in the order given; then the interner and the
// columnar flag. Both checkpoint formats write their engines through it.
// part is the partition the section belongs to: on a partitioned engine it
// holds the rows of each window that partition's route selects, and only
// section 0 carries the counts.
func (e *Engine) writeSections(enc *checkpoint.Encoder, part int, srcs []*liveSource, nodes []*liveNode, views []*queryUnit) error {
	lead := part == 0
	count := func(v int64) int64 {
		if lead {
			return v
		}
		return 0
	}
	enc.Varint(e.clock)
	enc.Varint(e.lastEager)
	enc.Varint(e.lastLazy)
	for _, c := range e.counterList() {
		enc.Varint(count(c.Value()))
	}
	enc.Varint(count(e.met.maxStateTuples.Value()))
	for _, src := range srcs {
		var err error
		if e.parts == 1 {
			err = src.win.SaveState(enc)
		} else {
			err = src.win.SaveSlice(enc, lead, func(t tuple.Tuple) bool { return e.partOf(src, t) == part })
		}
		if err != nil {
			return err
		}
	}
	for _, n := range nodes {
		s, ok := n.op.(checkpoint.Snapshotter)
		if !ok {
			return fmt.Errorf("exec: operator %T cannot snapshot", n.op)
		}
		if err := s.SaveState(enc); err != nil {
			return err
		}
	}
	for _, q := range views {
		vs, ok := q.view.(checkpoint.Snapshotter)
		if !ok {
			return fmt.Errorf("exec: view %T cannot snapshot", q.view)
		}
		if err := vs.SaveState(enc); err != nil {
			return err
		}
	}
	// Interner section (format version 2): the symbol table in id order, so
	// restored columnar state and kernel constants resolve to identical ids,
	// plus the not-demoted flag — a demoted engine must stay demoted across
	// restore, because its serialized state may hold kind-nonconforming rows.
	strs := e.intern.Strings()
	enc.Uvarint(uint64(len(strs)))
	for _, s := range strs {
		enc.String(s)
	}
	enc.Bool(e.colOK)
	return enc.Err()
}

// readSections is writeSections' mirror. Section 0 sets the engine's
// scalars: counters are rehydrated by delta so a registry-backed series lands
// exactly on the saved value. A later partition section adds its counts and
// state peak, merges its window slices in (TS, section) order, and keeps the
// latest clock and the earliest maintenance cursors: the shard coordinator's
// sections moved their clocks only when their shard got work, and the
// earliest cursor skips no pass a lagging shard still owed. Afterwards the
// clock/watermark gauges and state samples are refreshed so metrics read
// consistently with the restored engine.
func (e *Engine) readSections(dec *checkpoint.Decoder, part int, srcs []*liveSource, nodes []*liveNode, views []*queryUnit) error {
	clock, lastEager, lastLazy := dec.Varint(), dec.Varint(), dec.Varint()
	if part == 0 {
		e.clock, e.lastEager, e.lastLazy = clock, lastEager, lastLazy
		for _, c := range e.counterList() {
			c.Add(dec.Varint() - c.Value())
		}
		e.met.maxStateTuples.SetMax(dec.Varint())
	} else {
		e.clock = max(e.clock, clock)
		e.lastEager = min(e.lastEager, lastEager)
		e.lastLazy = min(e.lastLazy, lastLazy)
		for _, c := range e.counterList() {
			c.Add(dec.Varint())
		}
		e.met.maxStateTuples.Set(e.met.maxStateTuples.Value() + dec.Varint())
	}
	for _, src := range srcs {
		var err error
		if part == 0 {
			err = src.win.LoadState(dec)
		} else {
			err = src.win.LoadSlice(dec)
		}
		if err != nil {
			return err
		}
	}
	for _, n := range nodes {
		s, ok := n.op.(checkpoint.Snapshotter)
		if !ok {
			return fmt.Errorf("exec: operator %T cannot snapshot", n.op)
		}
		if err := s.LoadState(dec); err != nil {
			return err
		}
	}
	for _, q := range views {
		vs, ok := q.view.(checkpoint.Snapshotter)
		if !ok {
			return fmt.Errorf("exec: view %T cannot snapshot", q.view)
		}
		if err := vs.LoadState(dec); err != nil {
			return err
		}
	}
	n := dec.Count()
	if err := dec.Err(); err != nil {
		return err
	}
	strs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		strs = append(strs, dec.String())
	}
	savedColOK := dec.Bool()
	if err := dec.Err(); err != nil {
		return err
	}
	// A partitioned engine runs no columnar chain, so only section 0's
	// symbol table is kept.
	if part == 0 {
		if err := e.intern.Reset(strs); err != nil {
			return fmt.Errorf("%w: %v", checkpoint.ErrCorrupt, err)
		}
	}
	// AND, never OR: a plan this engine cannot run columnar stays row-form
	// regardless of what the saving engine did, and a saved demotion sticks.
	e.colOK = e.colOK && savedColOK
	e.mark = min(e.lastEager, e.lastLazy)
	e.met.clock.Set(e.clock)
	e.met.watermark.Set(e.mark)
	e.refreshStateGauges()
	return nil
}

// writeHeader begins a checkpoint stream of query q: magic and version, the
// plan fingerprint, the number of state sections that follow, the clock, and
// the tables the plan reads, once.
func writeHeader(enc *checkpoint.Encoder, q *queryUnit, sections int, clock int64) error {
	enc.Begin()
	enc.String(q.fp)
	enc.Uvarint(uint64(sections))
	enc.Varint(clock)
	return writeTables(enc, uniqueTables(q.phys.Tables))
}

// checkpointed updates the checkpoint series for a completed checkpoint of
// n bytes, started at start (read only when timed).
func (e *Engine) checkpointed(start time.Time, n int64) {
	e.met.checkpoints.Inc()
	e.met.checkpointBytes.Set(n)
	e.met.checkpointLast.Set(obs.Nanotime())
	if e.timed {
		e.met.checkpointNanos.Observe(time.Since(start).Nanoseconds())
	}
}

// Restore rehydrates the engine from a checkpoint written by an engine built
// from the same plan at the same partition count. The plan fingerprint and
// the section count are validated before any state is touched: a mismatch
// returns *checkpoint.MismatchError and leaves the engine as it was. The
// engine should be freshly built; restoring over accumulated state replaces
// stored tuples but counter deltas assume a zero baseline.
func (e *Engine) Restore(r io.Reader) error {
	if err := e.catchUp(); err != nil {
		return err
	}
	if len(e.queries) != e.parts {
		return fmt.Errorf("exec: engine restore requires exactly one registered query (have %d); use RestoreRegistry", len(e.queries))
	}
	var start time.Time
	if e.timed {
		start = time.Now()
	}
	dec := checkpoint.NewDecoder(r)
	dec.Begin()
	fp := dec.String()
	sections := dec.Count()
	if err := dec.Err(); err != nil {
		return err
	}
	phys := e.queries[0].phys
	if want := e.queries[0].fp; fp != want {
		return &checkpoint.MismatchError{Field: "plan", Want: want, Got: fp}
	}
	if sections != e.parts {
		return &checkpoint.MismatchError{
			Field: "shards", Want: strconv.Itoa(e.parts), Got: strconv.Itoa(sections),
		}
	}
	clock := dec.Varint()
	if err := dec.Err(); err != nil {
		return err
	}
	if err := readTables(dec, uniqueTables(phys.Tables)); err != nil {
		return err
	}
	for p, q := range e.queries {
		if err := e.readSections(dec, p, q.srcs, q.nodes, []*queryUnit{q}); err != nil {
			return err
		}
	}
	// The header's clock is the largest timestamp admitted; a shard
	// coordinator's sections could lag it.
	e.clock = max(e.clock, clock)
	e.met.clock.Set(e.clock)
	e.met.restores.Inc()
	if e.timed {
		e.met.restoreNanos.Observe(time.Since(start).Nanoseconds())
	}
	return nil
}
