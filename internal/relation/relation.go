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
// A table only stores rows and answers keyed probes; the executor routes each
// update to the ⋈R operators reading the table.
package relation

import (
	"fmt"
	"slices"

	"repro/internal/checkpoint"
	"repro/internal/statebuf"
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

// Table is the shared implementation of Relation and NRR: a multiset of rows.
// Each copy of a row is one entry of a slab, linked into insertion order, and
// each index — the one over every column, then one per EnsureIndex — is a
// statebuf.Table from a key to its copies, oldest first. Scan, SaveState and
// every probe therefore visit copies in insertion order, and Delete removes
// the oldest copy of its row.
type Table struct {
	name        string
	schema      *tuple.Schema
	retro       bool
	copies      statebuf.Slab[rowCopy]
	first, last int32    // the oldest and the youngest copy
	indexes     []*index // indexes[0] is over every column
	size        int
}

type rowCopy struct {
	ts         int64 // insertion time
	vals       []tuple.Value
	prev, next int32 // neighbours in insertion order
}

type index struct {
	cols []int
	keys statebuf.Table[[]int32] // a key's copies, oldest first
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
	all := make([]int, schema.Len())
	for i := range all {
		all[i] = i
	}
	return &Table{name: name, schema: schema, retro: retro, indexes: []*index{{cols: all}}}
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

// Check reports the error Apply would return for u without applying it: a
// wrong arity, an unknown kind, the delete of an absent row. An executor
// checks before it advances its clock to u.TS, so a refused update moves
// nothing.
func (t *Table) Check(u Update) error {
	_, err := t.check(u)
	return err
}

// check is Check, returning the slot of u's row in the full-row index when u
// is a Delete.
func (t *Table) check(u Update) (int32, error) {
	if len(u.Row) != t.schema.Len() {
		return 0, fmt.Errorf("relation %s: row arity %d != schema %d", t.name, len(u.Row), t.schema.Len())
	}
	switch u.Kind {
	case Insert:
		return 0, nil
	case Delete:
		all := t.indexes[0]
		if ref := all.keys.FindRow(tuple.Tuple{Vals: u.Row}, all.cols); ref != 0 {
			return ref, nil
		}
		return 0, fmt.Errorf("relation %s: delete of absent row %v", t.name, u.Row)
	}
	return 0, fmt.Errorf("relation %s: unknown update kind %d", t.name, u.Kind)
}

// Apply executes one mutation after the checks of Check. Deleting removes the
// oldest copy of the row.
func (t *Table) Apply(u Update) error {
	ref, err := t.check(u)
	if err != nil {
		return err
	}
	if u.Kind == Insert {
		t.insert(u.TS, append([]tuple.Value(nil), u.Row...))
	} else {
		t.remove((*t.indexes[0].keys.At(ref))[0])
	}
	return nil
}

func (t *Table) insert(ts int64, vals []tuple.Value) {
	ref, c := t.copies.Alloc()
	*c = rowCopy{ts: ts, vals: vals, prev: t.last}
	if t.last == 0 {
		t.first = ref
	} else {
		t.copies.At(t.last).next = ref
	}
	t.last = ref
	for _, ix := range t.indexes {
		ix.add(ref, vals)
	}
	t.size++
}

func (ix *index) add(ref int32, vals []tuple.Value) {
	k, _ := ix.keys.UpsertRow(tuple.Tuple{Vals: vals}, ix.cols)
	refs := ix.keys.At(k)
	*refs = append(*refs, ref)
}

func (t *Table) remove(ref int32) {
	c := t.copies.At(ref)
	for _, ix := range t.indexes {
		k := ix.keys.FindRow(tuple.Tuple{Vals: c.vals}, ix.cols)
		refs := ix.keys.At(k)
		i := slices.Index(*refs, ref)
		if *refs = slices.Delete(*refs, i, i+1); len(*refs) == 0 {
			ix.keys.Delete(k)
		}
	}
	if c.prev == 0 {
		t.first = c.next
	} else {
		t.copies.At(c.prev).next = c.next
	}
	if c.next == 0 {
		t.last = c.prev
	} else {
		t.copies.At(c.next).prev = c.prev
	}
	*c = rowCopy{}
	t.copies.Release(ref)
	t.size--
}

// EnsureIndex returns the handle Probe takes for the index over cols,
// building the index over the current rows when there is none yet.
func (t *Table) EnsureIndex(cols []int) int {
	for i, ix := range t.indexes {
		if slices.Equal(ix.cols, cols) {
			return i
		}
	}
	ix := &index{cols: slices.Clone(cols)}
	for ref := t.first; ref != 0; ref = t.copies.At(ref).next {
		ix.add(ref, t.copies.At(ref).vals)
	}
	t.indexes = append(t.indexes, ix)
	return len(t.indexes) - 1
}

// Probe appends to dst the current rows whose key over index idx's columns
// equals s's key over cols, and returns the extended slice, so a caller
// reuses one scratch slice across probes. It builds no key and writes
// nothing, so shards sharing the table probe it concurrently.
func (t *Table) Probe(idx int, s tuple.Tuple, cols []int, dst [][]tuple.Value) [][]tuple.Value {
	ix := t.indexes[idx]
	if k := ix.keys.FindRow(s, cols); k != 0 {
		for _, ref := range *ix.keys.At(k) {
			dst = append(dst, t.copies.At(ref).vals)
		}
	}
	return dst
}

// Scan visits every current row.
func (t *Table) Scan(fn func(vals []tuple.Value) bool) {
	for ref := t.first; ref != 0; ref = t.copies.At(ref).next {
		if !fn(t.copies.At(ref).vals) {
			return
		}
	}
}

// SaveState implements checkpoint.Snapshotter: the current rows with their
// insertion timestamps. Indexes are derived state, rebuilt on load.
func (t *Table) SaveState(enc *checkpoint.Encoder) error {
	enc.Uvarint(uint64(t.size))
	for ref := t.first; ref != 0; ref = t.copies.At(ref).next {
		c := t.copies.At(ref)
		enc.Varint(c.ts)
		enc.Uvarint(uint64(len(c.vals)))
		for _, v := range c.vals {
			enc.Value(v)
		}
	}
	return enc.Err()
}

// LoadState implements checkpoint.Snapshotter, inserting the rows in the
// order they were written, which is the order they were inserted in.
func (t *Table) LoadState(dec *checkpoint.Decoder) error {
	t.copies, t.first, t.last, t.size = statebuf.Slab[rowCopy]{}, 0, 0, 0
	for _, ix := range t.indexes {
		ix.keys = statebuf.Table[[]int32]{}
	}
	n := dec.Count()
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
		t.insert(ts, vals)
	}
	return dec.Err()
}
