// Package relation implements the two table flavours of Section 4.1 of
// Golab & Özsu (SIGMOD 2005):
//
//   - Relation: a traditional table with arbitrary retroactive updates. An
//     insertion at time τ joins with previously arrived stream tuples, and a
//     deletion retracts previously reported results — so any operator
//     consuming a Relation produces strict non-monotonic output.
//   - NRR (non-retroactive relation): a table whose updates affect only
//     stream tuples arriving after the update. NRR joins never scan window
//     state on table updates, never emit retractions, and therefore preserve
//     the update pattern of their streaming input (monotonic over streams,
//     weakest non-monotonic over windows).
//
// Both structures deliver update notifications to registered listeners; the
// executor wires those to ⋈R operators.
package relation

import (
	"fmt"
	"slices"

	"repro/internal/checkpoint"
	"repro/internal/tuple"
)

// UpdateKind enumerates table mutations.
type UpdateKind int

const (
	// Insert adds a row.
	Insert UpdateKind = iota
	// Delete removes one row matching the given values.
	Delete
)

// String names the update kind.
func (k UpdateKind) String() string {
	if k == Delete {
		return "delete"
	}
	return "insert"
}

// Update is one table mutation, timestamped like stream tuples. An in-place
// update of a row is modeled as Delete followed by Insert at the same time.
type Update struct {
	Kind UpdateKind
	TS   int64
	Row  []tuple.Value
}

// Listener receives table mutations after they are applied.
type Listener func(u Update)

// Table is the shared implementation of Relation and NRR: a multiset of rows
// hash-indexed by full row value for O(1) deletion, with secondary probing
// by arbitrary key columns for joins.
type Table struct {
	name      string
	schema    *tuple.Schema
	retro     bool
	rows      map[tuple.Key][]row // keyed by full-row key
	byKey     map[string]*index   // lazily built secondary indexes
	size      int
	listeners []Listener
}

type row struct {
	ts   int64 // insertion time
	vals []tuple.Value
}

type index struct {
	cols    []int
	buckets map[tuple.Key][]row
}

// NewRelation builds a retroactive relation.
func NewRelation(name string, schema *tuple.Schema) *Table {
	return newTable(name, schema, true)
}

// NewNRR builds a non-retroactive relation.
func NewNRR(name string, schema *tuple.Schema) *Table {
	return newTable(name, schema, false)
}

func newTable(name string, schema *tuple.Schema, retro bool) *Table {
	return &Table{
		name:   name,
		schema: schema,
		retro:  retro,
		rows:   make(map[tuple.Key][]row),
		byKey:  make(map[string]*index),
	}
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() *tuple.Schema { return t.schema }

// Retroactive reports whether updates affect previously arrived stream
// tuples (true for Relation, false for NRR).
func (t *Table) Retroactive() bool { return t.retro }

// Len returns the current row count.
func (t *Table) Len() int { return t.size }

// Subscribe registers a listener invoked after every applied update.
func (t *Table) Subscribe(fn Listener) { t.listeners = append(t.listeners, fn) }

func (t *Table) fullKey(vals []tuple.Value) tuple.Key {
	cols := make([]int, len(vals))
	for i := range cols {
		cols[i] = i
	}
	return tuple.Tuple{Vals: vals}.Key(cols)
}

// Apply executes one mutation and notifies listeners. Deleting an absent row
// is an error (callers must not retract what was never inserted).
func (t *Table) Apply(u Update) error {
	if len(u.Row) != t.schema.Len() {
		return fmt.Errorf("relation %s: row arity %d != schema %d", t.name, len(u.Row), t.schema.Len())
	}
	switch u.Kind {
	case Insert:
		r := row{ts: u.TS, vals: append([]tuple.Value(nil), u.Row...)}
		k := t.fullKey(u.Row)
		t.rows[k] = append(t.rows[k], r)
		for _, idx := range t.byKey {
			ik := tuple.Tuple{Vals: r.vals}.Key(idx.cols)
			idx.buckets[ik] = append(idx.buckets[ik], r)
		}
		t.size++
	case Delete:
		k := t.fullKey(u.Row)
		bucket := t.rows[k]
		if len(bucket) == 0 {
			return fmt.Errorf("relation %s: delete of absent row %v", t.name, u.Row)
		}
		victim := bucket[0] // oldest first, deterministic
		t.rows[k] = bucket[1:]
		if len(t.rows[k]) == 0 {
			delete(t.rows, k)
		}
		for _, idx := range t.byKey {
			ik := tuple.Tuple{Vals: victim.vals}.Key(idx.cols)
			ib := idx.buckets[ik]
			for i := range ib {
				if sameVals(ib[i].vals, victim.vals) && ib[i].ts == victim.ts {
					idx.buckets[ik] = append(ib[:i], ib[i+1:]...)
					break
				}
			}
			if len(idx.buckets[ik]) == 0 {
				delete(idx.buckets, ik)
			}
		}
		t.size--
	default:
		return fmt.Errorf("relation %s: unknown update kind %d", t.name, u.Kind)
	}
	for _, fn := range t.listeners {
		fn(u)
	}
	return nil
}

func sameVals(a, b []tuple.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// EnsureIndex builds (or returns) a secondary index over the given columns,
// so ⋈NRR / ⋈R probe in O(1) expected time.
func (t *Table) EnsureIndex(cols []int) {
	key := fmt.Sprint(cols)
	if _, ok := t.byKey[key]; ok {
		return
	}
	idx := &index{cols: append([]int(nil), cols...), buckets: make(map[tuple.Key][]row)}
	for _, bucket := range t.rows {
		for _, r := range bucket {
			ik := tuple.Tuple{Vals: r.vals}.Key(cols)
			idx.buckets[ik] = append(idx.buckets[ik], r)
		}
	}
	t.byKey[key] = idx
}

// Probe visits current rows whose key over cols equals k. The index over
// cols must have been built with EnsureIndex; otherwise Probe falls back to a
// full scan.
func (t *Table) Probe(cols []int, k tuple.Key, fn func(vals []tuple.Value) bool) {
	if idx, ok := t.byKey[fmt.Sprint(cols)]; ok {
		for _, r := range idx.buckets[k] {
			if !fn(r.vals) {
				return
			}
		}
		return
	}
	t.Scan(func(vals []tuple.Value) bool {
		if (tuple.Tuple{Vals: vals}).Key(cols) == k {
			return fn(vals)
		}
		return true
	})
}

// SaveState implements checkpoint.Snapshotter: the current rows with their
// insertion timestamps, in full-row key order (tuple.Key.Compare), so equal
// tables write equal bytes. Secondary indexes are derived state and are
// rebuilt on load rather than serialized. Per-key bucket order (which decides
// the deletion victim among duplicate rows) is preserved.
func (t *Table) SaveState(enc *checkpoint.Encoder) error {
	enc.Uvarint(uint64(t.size))
	keys := make([]tuple.Key, 0, len(t.rows))
	for k := range t.rows {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, tuple.Key.Compare)
	for _, k := range keys {
		for _, r := range t.rows[k] {
			enc.Varint(r.ts)
			enc.Uvarint(uint64(len(r.vals)))
			for _, v := range r.vals {
				enc.Value(v)
			}
		}
	}
	return enc.Err()
}

// LoadState implements checkpoint.Snapshotter. Rows are re-keyed and every
// secondary index already requested via EnsureIndex is rebuilt. Listeners
// are NOT notified: a restore reproduces state, it is not a stream of
// updates.
func (t *Table) LoadState(dec *checkpoint.Decoder) error {
	n := dec.Count()
	t.rows = make(map[tuple.Key][]row)
	t.size = 0
	for _, idx := range t.byKey {
		idx.buckets = make(map[tuple.Key][]row)
	}
	for i := 0; i < n && dec.Err() == nil; i++ {
		ts := dec.Varint()
		nv := dec.Count()
		var vals []tuple.Value
		for j := 0; j < nv && dec.Err() == nil; j++ {
			vals = append(vals, dec.Value())
		}
		if dec.Err() != nil {
			break
		}
		if len(vals) != t.schema.Len() {
			return fmt.Errorf("%w: table %s row arity %d != schema %d",
				checkpoint.ErrCorrupt, t.name, len(vals), t.schema.Len())
		}
		r := row{ts: ts, vals: vals}
		k := t.fullKey(vals)
		t.rows[k] = append(t.rows[k], r)
		for _, idx := range t.byKey {
			ik := tuple.Tuple{Vals: vals}.Key(idx.cols)
			idx.buckets[ik] = append(idx.buckets[ik], r)
		}
		t.size++
	}
	return dec.Err()
}

// Scan visits every current row.
func (t *Table) Scan(fn func(vals []tuple.Value) bool) {
	for _, bucket := range t.rows {
		for _, r := range bucket {
			if !fn(r.vals) {
				return
			}
		}
	}
}
