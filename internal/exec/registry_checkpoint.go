package exec

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/operator"
	"repro/internal/relation"
)

// Registry checkpoint format. A multi-query engine's dynamic state is one
// stream:
//
//	magic+version (checkpoint.Encoder.Begin)
//	registry fingerprint (string: per-query label + plan fingerprint,
//	  in registration order)
//	query count (uvarint)
//	coordinator clock (varint)
//	table section: count, then per unique table (deduplicated across all
//	  queries) its name and contents
//	one engine state section (writeSections): every live window, every live
//	  operator, then one view per query in registration order
//
// Shared state is written once — a node serving eight queries contributes
// one section. The fingerprint pins the live queries (names, plans, order),
// so the layout is derived from them alone: walk the live queries in
// registration order, each plan's sources in Sources order and its operators
// in post-order (tables in pre-order), and take each record at its first
// visit. An engine that registered the survivors of an unregistration, in
// order, lays its sections out the same way; for a registry that never
// unregistered the walk is install order.

// errPartitionedRegistry refuses the registry format on a partitioned
// engine: its one query checkpoints through QueryHandle.Checkpoint, which
// replays the tape first and writes a section per partition.
var errPartitionedRegistry = errors.New("exec: a partitioned engine's query checkpoints alone; use its QueryHandle")

// registryFingerprint renders the registration-sequence identity a registry
// checkpoint must match.
func (e *Engine) registryFingerprint() string {
	var b strings.Builder
	b.WriteString("registry")
	for _, q := range e.queries {
		fmt.Fprintf(&b, ";%s=%s", q.label(), fingerprint(q.phys))
	}
	return b.String()
}

// layout walks the live queries for the registry section order (see the
// format comment): the first holder of a record is the first query to visit
// it, since holders are in registration order.
func (e *Engine) layout() (tables []*relation.Table, srcs []*liveSource, nodes []*liveNode) {
	for _, q := range e.queries {
		for _, n := range q.nodes {
			top, ok := n.op.(operator.TableOperator)
			if ok && n.holders[0] == q && !slices.Contains(tables, top.Table()) {
				tables = append(tables, top.Table())
			}
		}
		for _, s := range q.srcs {
			if s.holders[0] == q {
				srcs = append(srcs, s)
			}
		}
		q.postorder(func(n *liveNode) {
			if n.holders[0] == q {
				nodes = append(nodes, n)
			}
		})
	}
	return tables, srcs, nodes
}

// CheckpointRegistry writes the full multi-query engine state — shared
// state once, per-query views each — restorable into an engine that
// registered the same live queries in the same order (RestoreRegistry). A
// partitioned engine refuses it, as it refuses registration.
func (e *Engine) CheckpointRegistry(w io.Writer) error {
	if e.closed {
		return ErrClosed
	}
	if e.parts > 1 {
		return errPartitionedRegistry
	}
	var start time.Time
	if e.timed {
		start = time.Now()
	}
	tables, srcs, nodes := e.layout()
	enc := checkpoint.NewEncoder(w)
	enc.Begin()
	enc.String(e.registryFingerprint())
	enc.Uvarint(uint64(len(e.queries)))
	enc.Varint(e.clock)
	if err := writeTables(enc, tables); err != nil {
		return err
	}
	if err := e.writeSections(enc, 0, srcs, nodes, e.queries); err != nil {
		return err
	}
	e.checkpointed(start, enc.Bytes())
	return nil
}

// RestoreRegistry rehydrates a multi-query engine from a CheckpointRegistry
// stream. The registry fingerprint — query names, plans, and registration
// order — is validated before any state is touched; a mismatch returns
// *checkpoint.MismatchError and leaves the engine unchanged. The engine
// should be freshly built by registering the checkpointed engine's live
// queries in order. A partitioned engine refuses it.
func (e *Engine) RestoreRegistry(r io.Reader) error {
	if e.closed {
		return ErrClosed
	}
	if e.parts > 1 {
		return errPartitionedRegistry
	}
	var start time.Time
	if e.timed {
		start = time.Now()
	}
	dec := checkpoint.NewDecoder(r)
	dec.Begin()
	fp := dec.String()
	n := dec.Count()
	if err := dec.Err(); err != nil {
		return err
	}
	if want := e.registryFingerprint(); fp != want {
		return &checkpoint.MismatchError{Field: "registry", Want: want, Got: fp}
	}
	if n != len(e.queries) {
		return &checkpoint.MismatchError{
			Field: "queries", Want: strconv.Itoa(len(e.queries)), Got: strconv.Itoa(n),
		}
	}
	dec.Varint() // coordinator clock; the engine's clock travels below
	tables, srcs, nodes := e.layout()
	if err := readTables(dec, tables); err != nil {
		return err
	}
	if err := e.readSections(dec, 0, srcs, nodes, e.queries); err != nil {
		return err
	}
	e.met.restores.Inc()
	if e.timed {
		e.met.restoreNanos.Observe(time.Since(start).Nanoseconds())
	}
	return nil
}
