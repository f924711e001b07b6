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
)

// This file implements engine-level checkpoint and restore on top of the
// internal/checkpoint wire format. A checkpoint is one stream:
//
//	magic+version (checkpoint.Encoder.Begin)
//	plan fingerprint (string)
//	shard count (uvarint)
//	coordinator clock (varint)
//	table section: count, then per unique table its name and contents
//	per shard, in shard order: one engine state section
//
// The fingerprint pins everything a checkpoint is NOT allowed to carry
// across: execution strategy, update-pattern class, view structure, output
// schema, and the full operator tree (ids and parameterized names). Restore
// validates the fingerprint and the shard count before touching any state,
// so a mismatched restore leaves the engine exactly as it was.
//
// Configuration never travels in a checkpoint: windows, state-buffer
// choices, and operator wiring are rebuilt from the plan, and only dynamic
// state (clocks, cursors, counters, stored tuples) is serialized. A
// checkpoint therefore restores only into an engine built from the same
// query, strategy, options, and shard layout.

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
// registry's table readers), deduplicated by pointer, in node order. Sharded
// engines share table pointers (shards rebuild the plan from the same logical
// tree), and so do registered queries, so table contents are written once per
// checkpoint regardless of shard or query count.
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
// window contents in source order, operator state in plan pre-order, and
// the result view, between writeSections' preamble and trailer. It reads
// through q's records, so the section a registry extracts for one of several
// queries is laid out as a single-query engine's own.
func (e *Engine) writeState(enc *checkpoint.Encoder, q *queryUnit) error {
	return e.writeSections(enc, q.srcs, q.nodes, []*queryUnit{q})
}

// readState is writeState's mirror for the engine's one query.
func (e *Engine) readState(dec *checkpoint.Decoder) error {
	q := e.queries[0]
	return e.readSections(dec, q.srcs, q.nodes, e.queries[:1])
}

// writeSections writes one engine state section: clock and maintenance
// cursors, cumulative counters and the state peak; then the given windows,
// operators and views in the order given; then the interner and the
// columnar flag. Both checkpoint formats write their engines through it.
func (e *Engine) writeSections(enc *checkpoint.Encoder, srcs []*liveSource, nodes []*liveNode, views []*queryUnit) error {
	enc.Varint(e.clock)
	enc.Varint(e.lastEager)
	enc.Varint(e.lastLazy)
	for _, c := range e.counterList() {
		enc.Varint(c.Value())
	}
	enc.Varint(e.met.maxStateTuples.Value())
	for _, src := range srcs {
		if err := src.win.SaveState(enc); err != nil {
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

// readSections is writeSections' mirror. Counters are rehydrated by delta so
// a registry-backed series lands exactly on the saved value; afterwards the
// clock/watermark gauges and state samples are refreshed so metrics read
// consistently with the restored engine.
func (e *Engine) readSections(dec *checkpoint.Decoder, srcs []*liveSource, nodes []*liveNode, views []*queryUnit) error {
	e.clock = dec.Varint()
	e.lastEager = dec.Varint()
	e.lastLazy = dec.Varint()
	for _, c := range e.counterList() {
		c.Add(dec.Varint() - c.Value())
	}
	e.met.maxStateTuples.SetMax(dec.Varint())
	for _, src := range srcs {
		if err := src.win.LoadState(dec); err != nil {
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
	if err := e.intern.Reset(strs); err != nil {
		return fmt.Errorf("%w: %v", checkpoint.ErrCorrupt, err)
	}
	// AND, never OR: a plan this engine cannot run columnar stays row-form
	// regardless of what the saving engine did, and a saved demotion sticks.
	e.colOK = e.colOK && savedColOK
	e.met.clock.Set(e.clock)
	e.met.watermark.Set(e.Watermark())
	e.refreshStateGauges()
	return nil
}

// writeHeader begins a checkpoint stream: magic and version, the plan
// fingerprint, the number of state sections that follow, the coordinator
// clock, and the tables the plan reads, once.
func writeHeader(enc *checkpoint.Encoder, p *plan.Physical, sections int, clock int64) error {
	enc.Begin()
	enc.String(fingerprint(p))
	enc.Uvarint(uint64(sections))
	enc.Varint(clock)
	return writeTables(enc, uniqueTables(p.Tables))
}

// writeCheckpoint writes one checkpoint — the header, then one state section
// per engine — and records it in the first engine's checkpoint instruments.
// A plain engine passes itself; the coordinator passes its drained shards.
func writeCheckpoint(w io.Writer, clock int64, engines []*Engine) error {
	lead := engines[0]
	var start time.Time
	if lead.timed {
		start = time.Now()
	}
	enc := checkpoint.NewEncoder(w)
	if err := writeHeader(enc, lead.phys, len(engines), clock); err != nil {
		return err
	}
	for _, eng := range engines {
		if err := eng.writeState(enc, eng.queries[0]); err != nil {
			return err
		}
	}
	lead.met.checkpoints.Inc()
	lead.met.checkpointBytes.Set(enc.Bytes())
	lead.met.checkpointLast.Set(obs.Nanotime())
	if lead.timed {
		lead.met.checkpointNanos.Observe(time.Since(start).Nanoseconds())
	}
	return nil
}

// readCheckpoint is writeCheckpoint's mirror and returns the coordinator
// clock. The plan fingerprint and the section count are validated against the
// engines before any state is touched: a mismatch returns
// *checkpoint.MismatchError and leaves every engine as it was.
func readCheckpoint(r io.Reader, engines []*Engine) (clock int64, err error) {
	lead := engines[0]
	var start time.Time
	if lead.timed {
		start = time.Now()
	}
	dec := checkpoint.NewDecoder(r)
	dec.Begin()
	fp := dec.String()
	shards := dec.Count()
	if err := dec.Err(); err != nil {
		return 0, err
	}
	if want := fingerprint(lead.phys); fp != want {
		return 0, &checkpoint.MismatchError{Field: "plan", Want: want, Got: fp}
	}
	if shards != len(engines) {
		return 0, &checkpoint.MismatchError{
			Field: "shards", Want: strconv.Itoa(len(engines)), Got: strconv.Itoa(shards),
		}
	}
	clock = dec.Varint()
	if err := dec.Err(); err != nil {
		return 0, err
	}
	if err := readTables(dec, uniqueTables(lead.phys.Tables)); err != nil {
		return 0, err
	}
	for _, eng := range engines {
		if err := eng.readState(dec); err != nil {
			return 0, err
		}
	}
	lead.met.restores.Inc()
	if lead.timed {
		lead.met.restoreNanos.Observe(time.Since(start).Nanoseconds())
	}
	return clock, nil
}

// Checkpoint writes the engine's complete dynamic state to w. It does not
// force pending maintenance: cursors travel with the state, so a restored
// engine resumes the exact maintenance schedule, and checkpointing never
// perturbs the run it snapshots. This is the single-query format; an engine
// carrying several registered queries checkpoints with CheckpointRegistry
// (or per query through QueryHandle.Checkpoint).
func (e *Engine) Checkpoint(w io.Writer) error {
	if e.closed {
		return ErrClosed
	}
	if len(e.queries) != 1 {
		return fmt.Errorf("exec: engine checkpoint requires exactly one registered query (have %d); use CheckpointRegistry", len(e.queries))
	}
	return writeCheckpoint(w, e.clock, []*Engine{e})
}

// Restore rehydrates the engine from a checkpoint written by an engine built
// from the same plan (see readCheckpoint for what is validated first). The
// engine should be freshly built; restoring over accumulated state replaces
// stored tuples but counter deltas assume a zero baseline. The engine's own
// clock travels in its state section, so the header's is not needed.
func (e *Engine) Restore(r io.Reader) error {
	if e.closed {
		return ErrClosed
	}
	if len(e.queries) != 1 {
		return fmt.Errorf("exec: engine restore requires exactly one registered query (have %d); use RestoreRegistry", len(e.queries))
	}
	_, err := readCheckpoint(r, []*Engine{e})
	return err
}

// Checkpoint drains all workers behind a batch barrier, then writes the
// coordinator clock, the shared tables once, and one state section per
// shard.
func (s *sharded) Checkpoint(w io.Writer) error {
	if err := s.barrier(); err != nil {
		return err
	}
	return writeCheckpoint(w, s.clock, s.shards)
}

// Restore rehydrates every shard from a checkpoint written by an executor
// with the same plan AND the same shard count: a 4-shard checkpoint restores
// only into four shards (see readCheckpoint).
func (s *sharded) Restore(r io.Reader) error {
	if err := s.barrier(); err != nil {
		return err
	}
	clock, err := readCheckpoint(r, s.shards)
	if err == nil {
		s.clock = clock
	}
	return err
}
