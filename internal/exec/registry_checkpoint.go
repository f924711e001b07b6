package exec

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/obs"
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
//	clock + maintenance cursors + global counters
//	window state, one section per canonical source in registration order
//	operator state, one section per canonical operator in registration
//	  (children-first) order
//	view state, one section per query in registration order
//	interner + columnar flag
//
// Shared state is written once — a node serving eight queries contributes
// one section. The fingerprint pins the full registration sequence (names,
// plans, order), and the canonical layout is a deterministic function of
// that sequence, so a restoring engine that was rebuilt by replaying the
// same registrations lays its sections out identically. A registry that has
// seen unregistrations restores only into an engine that replayed the same
// register/unregister history's surviving sequence... which the fingerprint
// cannot distinguish from a fresh engine registered with the survivors in
// order — but those two engines differ in canonical layout only if
// registration order changed, which the fingerprint does encode.

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

// CheckpointRegistry writes the full multi-query engine state — shared
// state once, per-query views each — restorable into an engine that
// registered the same queries in the same order (RestoreRegistry).
func (e *Engine) CheckpointRegistry(w io.Writer) error {
	if e.closed {
		return ErrClosed
	}
	var start time.Time
	if e.timed {
		start = time.Now()
	}
	enc := checkpoint.NewEncoder(w)
	enc.Begin()
	enc.String(e.registryFingerprint())
	enc.Uvarint(uint64(len(e.queries)))
	enc.Varint(e.clock)
	if err := writeTables(enc, uniqueTables(e.tables)); err != nil {
		return err
	}
	enc.Varint(e.clock)
	enc.Varint(e.lastEager)
	enc.Varint(e.lastLazy)
	for _, c := range e.counterList() {
		enc.Varint(c.Value())
	}
	enc.Varint(e.met.maxStateTuples.Value())
	for _, src := range e.sources {
		if err := src.Window.SaveState(enc); err != nil {
			return err
		}
	}
	for _, pn := range e.order {
		s, ok := pn.Op.(checkpoint.Snapshotter)
		if !ok {
			return fmt.Errorf("exec: operator %T cannot snapshot", pn.Op)
		}
		if err := s.SaveState(enc); err != nil {
			return err
		}
	}
	for _, q := range e.queries {
		vs, ok := q.view.(checkpoint.Snapshotter)
		if !ok {
			return fmt.Errorf("exec: view %T cannot snapshot", q.view)
		}
		if err := vs.SaveState(enc); err != nil {
			return err
		}
	}
	strs := e.intern.Strings()
	enc.Uvarint(uint64(len(strs)))
	for _, s := range strs {
		enc.String(s)
	}
	enc.Bool(e.colOK)
	if err := enc.Err(); err != nil {
		return err
	}
	e.met.checkpoints.Inc()
	e.met.checkpointBytes.Set(enc.Bytes())
	e.met.checkpointLast.Set(obs.Nanotime())
	if e.timed {
		e.met.checkpointNanos.Observe(time.Since(start).Nanoseconds())
	}
	return nil
}

// RestoreRegistry rehydrates a multi-query engine from a CheckpointRegistry
// stream. The registry fingerprint — query names, plans, and registration
// order — is validated before any state is touched; a mismatch returns
// *checkpoint.MismatchError and leaves the engine unchanged. The engine
// should be freshly built with the same registration sequence.
func (e *Engine) RestoreRegistry(r io.Reader) error {
	if e.closed {
		return ErrClosed
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
	if err := readTables(dec, uniqueTables(e.tables)); err != nil {
		return err
	}
	e.clock = dec.Varint()
	e.lastEager = dec.Varint()
	e.lastLazy = dec.Varint()
	for _, c := range e.counterList() {
		c.Add(dec.Varint() - c.Value())
	}
	e.met.maxStateTuples.SetMax(dec.Varint())
	for _, src := range e.sources {
		if err := src.Window.LoadState(dec); err != nil {
			return err
		}
	}
	for _, pn := range e.order {
		s, ok := pn.Op.(checkpoint.Snapshotter)
		if !ok {
			return fmt.Errorf("exec: operator %T cannot snapshot", pn.Op)
		}
		if err := s.LoadState(dec); err != nil {
			return err
		}
	}
	for _, q := range e.queries {
		vs, ok := q.view.(checkpoint.Snapshotter)
		if !ok {
			return fmt.Errorf("exec: view %T cannot snapshot", q.view)
		}
		if err := vs.LoadState(dec); err != nil {
			return err
		}
	}
	sn := dec.Count()
	if err := dec.Err(); err != nil {
		return err
	}
	strs := make([]string, 0, sn)
	for i := 0; i < sn; i++ {
		strs = append(strs, dec.String())
	}
	savedColOK := dec.Bool()
	if err := dec.Err(); err != nil {
		return err
	}
	if err := e.intern.Reset(strs); err != nil {
		return fmt.Errorf("%w: %v", checkpoint.ErrCorrupt, err)
	}
	e.colOK = e.colOK && savedColOK
	e.met.clock.Set(e.clock)
	e.met.watermark.Set(e.Watermark())
	e.refreshStateGauges()
	e.met.restores.Inc()
	if e.timed {
		e.met.restoreNanos.Observe(time.Since(start).Nanoseconds())
	}
	return nil
}

// Checkpoint writes this query's slice of the registry in the standalone
// single-engine format: a stream restorable into a plain engine built from
// the same plan (exec.New / the facade's Compile). Shared state is written
// through the query's canonical mapping, so the extracted engine carries
// exactly the windows, operator state, and view this query observes.
// Cumulative counters are registry-wide (per-query counters exist only as
// metric series), so the extracted engine's Stats over-report if other
// queries were registered.
func (h *QueryHandle) Checkpoint(w io.Writer) error {
	if h.e.closed {
		return ErrClosed
	}
	enc := checkpoint.NewEncoder(w)
	if err := writeHeader(enc, h.q.phys, 1, h.e.clock); err != nil {
		return err
	}
	return h.e.writeState(enc, h.q)
}
