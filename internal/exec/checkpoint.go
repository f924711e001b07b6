package exec

import (
	"bytes"
	"errors"
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

// This file implements engine checkpoint and restore on top of the
// internal/checkpoint wire format. A checkpoint is one stream:
//
//	magic+version (checkpoint.Encoder.Begin)
//	fingerprint (string)
//	count (uvarint)
//	clock (varint)
//	table section: count, then per unique table its name and contents
//	one or more engine state sections (writeSection)
//
// The header says which of two layouts follows; writer and reader share
// everything else.
//
//   - Standalone: one query. The fingerprint is its plan's, the count is its
//     partition count (1 when unpartitioned), the tables are those its plan
//     reads, and one section per partition follows, in partition order, with
//     the windows, operators (plan pre-order) and view that partition
//     observes: its slice of each shared window (the rows its route
//     selects), and the engine-wide counts in section 0 only. The reader
//     merges the window slices in (TS, section) order, so a checkpoint of
//     the earlier shard coordinator, whose sections were whole engines over
//     their own windows, restores through the same code.
//   - Registry: the live queries of a multi-query engine. The fingerprint
//     is registryFingerprint (per-query label and plan fingerprint, in
//     registration order), the count is the number of queries, and one
//     section holds every live record once (see registryLayout) and then
//     one view per query in registration order.
//
// An engine writes the standalone layout while it holds exactly one live
// query, partitioned or not, and the registry layout otherwise; a query's
// handle writes its own query standalone. Restore takes either layout the
// engine can be in, so a one-query engine still reads the registry header an
// older writer gave it.
//
// The fingerprint pins everything a checkpoint is NOT allowed to carry
// across: execution strategy, update-pattern class, view structure, output
// schema, and the full operator tree (ids and parameterized names), of every
// query. Restore validates the fingerprint and the count before touching any
// state, so a mismatched restore leaves the engine exactly as it was.
//
// Configuration never travels in a checkpoint: windows, state-buffer
// choices, and operator wiring are rebuilt from the plan, and only dynamic
// state (clocks, cursors, counters, stored tuples) is serialized. A
// checkpoint therefore restores only into an engine built from the same
// queries, strategies, options, and partition count.

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

// ckptLayout is what one checkpoint holds, in stream order: the header's
// fingerprint and count, the tables, and the state sections. fpField and
// countField name the header fields in a MismatchError.
type ckptLayout struct {
	fp, fpField string
	count       int
	countField  string
	tables      []*relation.Table
	sections    []ckptSection
}

// ckptSection is one engine state section: the partition it belongs to, and
// the windows, operators and views it carries, in that order.
type ckptSection struct {
	part  int
	srcs  []*liveSource
	nodes []*liveNode
	views []*queryUnit
}

// standaloneLayout lays out one query: units are its registered unit, or its
// partitions in partition order. Each unit's section is written through its
// records, so the section a registry extracts for one of several queries is
// laid out as a single-query engine's own.
func standaloneLayout(units []*queryUnit) ckptLayout {
	q := units[0]
	l := ckptLayout{fp: q.fp, fpField: "plan", count: len(units), countField: "shards",
		tables: uniqueTables(q.phys.Tables)}
	for _, u := range units {
		l.sections = append(l.sections, ckptSection{part: u.part, srcs: u.srcs, nodes: u.nodes, views: []*queryUnit{u}})
	}
	return l
}

// registryFingerprint renders the registration-sequence identity a registry
// checkpoint must match.
func (e *Engine) registryFingerprint() string {
	var b strings.Builder
	b.WriteString("registry")
	for _, q := range e.queries {
		b.WriteByte(';')
		b.WriteString(q.label())
		b.WriteByte('=')
		b.WriteString(q.fp)
	}
	return b.String()
}

// registryLayout lays out every live query in one section, each shared
// record once. The fingerprint pins the live queries (names, plans, order),
// so the order is derived from them alone: walk the live queries in
// registration order, each plan's sources in Sources order and its operators
// in post-order (tables in pre-order), and take each record at its first
// visit, which is its first holder's, since holders are in registration
// order. An engine that registered the survivors of an unregistration, in
// order, lays its section out the same way; for a registry that never
// unregistered the walk is install order.
func (e *Engine) registryLayout() ckptLayout {
	l := ckptLayout{fp: e.registryFingerprint(), fpField: "registry", count: len(e.queries), countField: "queries"}
	s := ckptSection{views: e.queries}
	for _, q := range e.queries {
		for _, n := range q.nodes {
			top, ok := n.op.(operator.TableOperator)
			if ok && n.holders[0] == q && !slices.Contains(l.tables, top.Table()) {
				l.tables = append(l.tables, top.Table())
			}
		}
		for _, src := range q.srcs {
			if src.holders[0] == q {
				s.srcs = append(s.srcs, src)
			}
		}
		q.postorder(func(n *liveNode) {
			if n.holders[0] == q {
				s.nodes = append(s.nodes, n)
			}
		})
	}
	l.sections = []ckptSection{s}
	return l
}

// ownLayout is the layout the engine writes of itself: standalone while it
// holds exactly one live query (a partitioned engine's partitions are one
// query), the registry's otherwise.
func (e *Engine) ownLayout() ckptLayout {
	if len(e.queries) == e.parts {
		return standaloneLayout(e.queries)
	}
	return e.registryLayout()
}

// Checkpoint writes the whole engine's state in its own layout (ownLayout),
// after replaying what a partitioned engine's tape still holds. It restores
// into an engine built the same way: the same plan at the same partition
// count, or the same live queries registered in the same order. Checkpointing
// does not force pending maintenance: cursors travel with the state, so a
// restored engine resumes the exact maintenance schedule, and checkpointing
// never perturbs the run it snapshots.
func (e *Engine) Checkpoint(w io.Writer) error {
	if err := e.catchUp(); err != nil {
		return err
	}
	return e.writeCheckpoint(w, e.ownLayout())
}

// writeCheckpoint is the one checkpoint writer: it writes l (writeState)
// and counts the checkpoint in the engine's metrics.
func (e *Engine) writeCheckpoint(w io.Writer, l ckptLayout) error {
	var start time.Time
	if e.timed {
		start = time.Now()
	}
	enc := checkpoint.NewEncoder(w)
	if err := e.writeState(enc, l); err != nil {
		return err
	}
	e.checkpointed(start, enc.Bytes())
	return nil
}

// writeState writes magic and version, l's header, the clock, l's tables,
// then l's sections.
func (e *Engine) writeState(enc *checkpoint.Encoder, l ckptLayout) error {
	enc.Begin()
	enc.String(l.fp)
	enc.Uvarint(uint64(l.count))
	enc.Varint(e.clock)
	if err := writeTables(enc, l.tables); err != nil {
		return err
	}
	for _, sec := range l.sections {
		if err := e.writeSection(enc, sec); err != nil {
			return err
		}
	}
	return enc.Err()
}

// writeSection writes one engine state section: clock and maintenance
// cursors, cumulative counters and the state peak; then sec's windows,
// operators and views in the order given; then the interner and the
// columnar flag. On a partitioned engine a section holds the rows of each
// window that its partition's route selects, and only section 0 carries the
// counts.
func (e *Engine) writeSection(enc *checkpoint.Encoder, sec ckptSection) error {
	lead := sec.part == 0
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
	for _, src := range sec.srcs {
		var err error
		if e.parts == 1 {
			err = src.win.SaveState(enc)
		} else {
			err = src.win.SaveSlice(enc, lead, func(t tuple.Tuple) bool { return e.partOf(src, t) == sec.part })
		}
		if err != nil {
			return err
		}
	}
	for _, n := range sec.nodes {
		s, ok := n.op.(checkpoint.Snapshotter)
		if !ok {
			return fmt.Errorf("exec: operator %T cannot snapshot", n.op)
		}
		if err := s.SaveState(enc); err != nil {
			return err
		}
	}
	for _, q := range sec.views {
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

// readSection is writeSection's mirror. Section 0 sets the engine's clock
// and cursors. Every section adds its counts and state peak to sums (the
// counters in counterList order, then the peak), which readState applies
// once all sections are read. A later partition section also merges its
// window slices in (TS, section) order, and keeps the latest clock and the
// earliest maintenance cursors: the shard coordinator's sections moved their
// clocks only when their shard got work, and the earliest cursor skips no
// pass a lagging shard still owed. Afterwards the clock/watermark gauges and
// state samples are refreshed so metrics read consistently with the restored
// engine.
func (e *Engine) readSection(dec *checkpoint.Decoder, sec ckptSection, sums []int64) error {
	clock, lastEager, lastLazy := dec.Varint(), dec.Varint(), dec.Varint()
	if sec.part == 0 {
		e.clock, e.lastEager, e.lastLazy = clock, lastEager, lastLazy
	} else {
		e.clock = max(e.clock, clock)
		e.lastEager = min(e.lastEager, lastEager)
		e.lastLazy = min(e.lastLazy, lastLazy)
	}
	for i := range sums {
		sums[i] += dec.Varint()
	}
	for _, src := range sec.srcs {
		var err error
		if sec.part == 0 {
			err = src.win.LoadState(dec)
		} else {
			err = src.win.LoadSlice(dec)
		}
		if err != nil {
			return err
		}
	}
	for _, n := range sec.nodes {
		s, ok := n.op.(checkpoint.Snapshotter)
		if !ok {
			return fmt.Errorf("exec: operator %T cannot snapshot", n.op)
		}
		if err := s.LoadState(dec); err != nil {
			return err
		}
	}
	for _, q := range sec.views {
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
	if sec.part == 0 {
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

// readState reads what writeState wrote after the header: the clock, l's
// tables, then l's sections. The counters and the state peak move only once
// every section has been read: counters never go down, so a refused restore
// must not have raised them.
func (e *Engine) readState(dec *checkpoint.Decoder, l ckptLayout) error {
	clock := dec.Varint()
	if err := dec.Err(); err != nil {
		return err
	}
	if err := readTables(dec, l.tables); err != nil {
		return err
	}
	counters := e.counterList()
	sums := make([]int64, len(counters)+1)
	for _, sec := range l.sections {
		if err := e.readSection(dec, sec, sums); err != nil {
			return err
		}
	}
	// Counters are rehydrated by delta, so a registry-backed series lands
	// exactly on the saved value.
	for i, c := range counters {
		c.Add(sums[i] - c.Value())
	}
	e.met.maxStateTuples.Set(sums[len(counters)])
	// The header's clock is the largest timestamp admitted; a shard
	// coordinator's sections could lag it.
	e.clock = max(e.clock, clock)
	e.met.clock.Set(e.clock)
	return nil
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

// Restore rehydrates the engine from a checkpoint of an engine built the
// same way: the same plan at the same partition count (the standalone
// layout), or the same live queries registered in the same order (the
// registry layout, which a one-query engine also reads). The header is
// validated before any state is touched: a fingerprint or count that names
// none of the engine's layouts returns *checkpoint.MismatchError and leaves
// the engine as it was. Any other refusal (checkpoint.ErrCorrupt, a read
// error) also leaves the engine as it was: Restore saves the engine's own
// state before it reads the sections, and reads that back when one fails.
// The engine should be freshly built; restoring over accumulated state
// replaces stored tuples but counter deltas assume a zero baseline.
func (e *Engine) Restore(r io.Reader) error {
	if err := e.catchUp(); err != nil {
		return err
	}
	var start time.Time
	if e.timed {
		start = time.Now()
	}
	e.synced = syncPoint{}
	dec := checkpoint.NewDecoder(r)
	dec.Begin()
	fp := dec.String()
	count := dec.Count()
	if err := dec.Err(); err != nil {
		return err
	}
	l := e.ownLayout()
	if fp != l.fp && e.parts == 1 && len(e.queries) == 1 {
		if reg := e.registryLayout(); fp == reg.fp {
			l = reg
		}
	}
	if fp != l.fp {
		return &checkpoint.MismatchError{Field: l.fpField, Want: l.fp, Got: fp}
	}
	if count != l.count {
		return &checkpoint.MismatchError{
			Field: l.countField, Want: strconv.Itoa(l.count), Got: strconv.Itoa(count),
		}
	}
	var own bytes.Buffer
	if err := e.writeState(checkpoint.NewEncoder(&own), e.ownLayout()); err != nil {
		return err
	}
	colOK := e.colOK
	if err := e.readState(dec, l); err != nil {
		// Sections before the refused one are loaded already: read the
		// engine's own state back over them.
		back := checkpoint.NewDecoder(&own)
		back.Begin()
		_, _ = back.String(), back.Count() // the engine's own header
		if berr := e.readState(back, e.ownLayout()); berr != nil {
			return errors.Join(err, fmt.Errorf("exec: reading back the state before the refused restore: %w", berr))
		}
		e.colOK = colOK // readSection only ever clears it
		return err
	}
	e.met.restores.Inc()
	if e.timed {
		e.met.restoreNanos.Observe(time.Since(start).Nanoseconds())
	}
	return nil
}
