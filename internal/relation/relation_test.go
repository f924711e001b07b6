package relation

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/tuple"
)

func symSchema() *tuple.Schema {
	return tuple.MustSchema(
		tuple.Column{Name: "symbol", Kind: tuple.KindString},
		tuple.Column{Name: "company", Kind: tuple.KindString},
	)
}

func row2(sym, co string) []tuple.Value {
	return []tuple.Value{tuple.String_(sym), tuple.String_(co)}
}

func TestInsertDeleteAndLen(t *testing.T) {
	r := NewNRR("symbols", symSchema())
	if r.Retroactive() {
		t.Error("NRR must be non-retroactive")
	}
	if err := r.Apply(Update{Kind: Insert, TS: 1, Row: row2("IBM", "IBM Corp")}); err != nil {
		t.Fatal(err)
	}
	if err := r.Apply(Update{Kind: Insert, TS: 2, Row: row2("SUNW", "Sun Microsystems")}); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 {
		t.Fatalf("Len = %d", r.Len())
	}
	if err := r.Apply(Update{Kind: Delete, TS: 3, Row: row2("IBM", "IBM Corp")}); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d", r.Len())
	}
	if err := r.Apply(Update{Kind: Delete, TS: 4, Row: row2("IBM", "IBM Corp")}); err == nil {
		t.Error("deleting absent row must fail")
	}
}

func TestArityValidation(t *testing.T) {
	r := NewRelation("r", symSchema())
	if !r.Retroactive() {
		t.Error("Relation must be retroactive")
	}
	for _, u := range []Update{
		{Kind: Insert, TS: 1, Row: []tuple.Value{tuple.Int(1)}},
		{Kind: UpdateKind(9), TS: 1, Row: row2("a", "b")},
		{Kind: Delete, TS: 1, Row: row2("a", "b")},
	} {
		if r.Check(u) == nil {
			t.Errorf("Check accepted %+v", u)
		}
		if err := r.Apply(u); err == nil || err.Error() != r.Check(u).Error() {
			t.Errorf("Apply(%+v) = %v, want Check's %v", u, err, r.Check(u))
		}
	}
	if r.Len() != 0 {
		t.Errorf("refused updates left %d rows", r.Len())
	}
}

func TestDuplicateRowsMultiset(t *testing.T) {
	r := NewNRR("t", symSchema())
	r.Apply(Update{Kind: Insert, TS: 1, Row: row2("A", "x")})
	r.Apply(Update{Kind: Insert, TS: 2, Row: row2("A", "x")})
	if r.Len() != 2 {
		t.Fatalf("Len = %d", r.Len())
	}
	if err := r.Apply(Update{Kind: Delete, TS: 3, Row: row2("A", "x")}); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 {
		t.Fatalf("Len after one delete = %d", r.Len())
	}
}

// TestListeners checks what a reader of the table sees after each update. A
// table has no listener hook of its own — the executor routes each update to
// the ⋈R operators reading the table — so a reader sees an applied update as
// soon as Apply returns, and a refused one not at all.
func TestListeners(t *testing.T) {
	r := NewNRR("t", symSchema())
	rows := func() string {
		var out []string
		r.Scan(func(vals []tuple.Value) bool { out = append(out, vals[0].S+vals[1].S); return true })
		return fmt.Sprint(out)
	}
	for _, step := range []struct {
		u    Update
		want string
	}{
		{Update{Kind: Insert, TS: 1, Row: row2("A", "x")}, "[Ax]"},
		{Update{Kind: Delete, TS: 2, Row: row2("B", "x")}, "[Ax]"}, // absent: refused
		{Update{Kind: Insert, TS: 3, Row: row2("B", "y")}, "[Ax By]"},
		{Update{Kind: Delete, TS: 4, Row: row2("A", "x")}, "[By]"},
	} {
		r.Apply(step.u)
		if got := rows(); got != step.want {
			t.Errorf("after %v %v: rows %s, want %s", step.u.Kind, step.u.Row, got, step.want)
		}
	}
	if Insert.String() != "insert" || Delete.String() != "delete" {
		t.Errorf("kind names: %v %v", Insert, Delete)
	}
}

// probeNames returns the company column of the rows whose symbol is sym, in
// the order Probe appends them.
func probeNames(r *Table, idx int, sym string) string {
	var names []string
	for _, vals := range r.Probe(idx, tuple.Tuple{Vals: row2(sym, "?")}, []int{0}, nil) {
		names = append(names, vals[1].S)
	}
	return fmt.Sprint(names)
}

// TestProbeWithAndWithoutIndex checks that an index built before any row and
// one built over rows already present probe alike, oldest copy first, and stay
// so across updates.
func TestProbeWithAndWithoutIndex(t *testing.T) {
	before := NewNRR("t", symSchema())
	idxBefore := before.EnsureIndex([]int{0})
	after := NewNRR("t", symSchema())
	apply := func(u Update) {
		before.Apply(u)
		after.Apply(u)
	}
	apply(Update{Kind: Insert, TS: 1, Row: row2("A", "y")})
	apply(Update{Kind: Insert, TS: 2, Row: row2("A", "x")})
	apply(Update{Kind: Insert, TS: 3, Row: row2("B", "z")})
	idxAfter := after.EnsureIndex([]int{0})

	check := func(when, want string) {
		t.Helper()
		if got := probeNames(before, idxBefore, "A"); got != want {
			t.Errorf("%s: index built before rows probes %s, want %s", when, got, want)
		}
		if got := probeNames(after, idxAfter, "A"); got != want {
			t.Errorf("%s: index built over rows probes %s, want %s", when, got, want)
		}
	}
	check("initial", "[y x]")
	// Index stays consistent across updates.
	apply(Update{Kind: Insert, TS: 4, Row: row2("A", "w")})
	apply(Update{Kind: Delete, TS: 5, Row: row2("A", "y")})
	check("post-update", "[x w]")
	// EnsureIndex is idempotent.
	if again := after.EnsureIndex([]int{0}); again != idxAfter {
		t.Errorf("re-index handle = %d, want %d", again, idxAfter)
	}
	check("re-index", "[x w]")
}

// TestProbeEarlyStop checks that Probe appends after what the caller's scratch
// already holds, oldest match first, so a caller that wants one match reads
// the first appended row, and one scratch slice serves every probe.
func TestProbeEarlyStop(t *testing.T) {
	r := NewNRR("t", symSchema())
	idx := r.EnsureIndex([]int{0})
	r.Apply(Update{Kind: Insert, TS: 1, Row: row2("A", "x")})
	r.Apply(Update{Kind: Insert, TS: 2, Row: row2("A", "y")})
	r.Apply(Update{Kind: Insert, TS: 3, Row: row2("B", "z")})
	key := func(sym string) tuple.Tuple { return tuple.Tuple{Vals: row2(sym, "?")} }

	scratch := r.Probe(idx, key("A"), []int{0}, [][]tuple.Value{row2("kept", "")})
	if len(scratch) != 3 || scratch[0][0].S != "kept" || scratch[1][1].S != "x" {
		t.Fatalf("probe into scratch = %v, want the kept row then x, y", scratch)
	}
	if scratch = r.Probe(idx, key("B"), []int{0}, scratch[:0]); len(scratch) != 1 || scratch[0][1].S != "z" {
		t.Errorf("reused scratch probe = %v, want [z]", scratch)
	}
	if scratch = r.Probe(idx, key("C"), []int{0}, scratch[:0]); len(scratch) != 0 {
		t.Errorf("probe of an absent key = %v", scratch)
	}
}

func TestScan(t *testing.T) {
	r := NewRelation("t", symSchema())
	r.Apply(Update{Kind: Insert, TS: 1, Row: row2("B", "y")})
	r.Apply(Update{Kind: Insert, TS: 2, Row: row2("A", "x")})
	var seen []string
	r.Scan(func(vals []tuple.Value) bool { seen = append(seen, vals[0].S); return true })
	if fmt.Sprint(seen) != "[B A]" {
		t.Errorf("Scan saw %v, want insertion order [B A]", seen)
	}
	n := 0
	r.Scan(func([]tuple.Value) bool { n++; return false })
	if n != 1 {
		t.Errorf("Scan early stop visited %d", n)
	}
}

func TestRowIsolation(t *testing.T) {
	r := NewNRR("t", symSchema())
	vals := row2("A", "x")
	r.Apply(Update{Kind: Insert, TS: 1, Row: vals})
	vals[0] = tuple.String_("MUTATED")
	found := false
	r.Scan(func(got []tuple.Value) bool { found = got[0].S == "A"; return false })
	if !found {
		t.Error("table must copy inserted rows")
	}
}

// modelRow is one copy of a row in the model: an insertion-ordered slice.
type modelRow struct {
	ts   int64
	vals []tuple.Value
}

// TestTableAgainstModel drives random inserts, deletes and probes against a
// table and an insertion-ordered slice. The table must agree on Len, on which
// deletes fail, on Scan order and on every index's probe sequence — for an
// index built before the rows and for one built over rows already present —
// and save → load → save must write the same bytes, the loaded table carrying
// on like the saved one.
func TestTableAgainstModel(t *testing.T) {
	schema := tuple.MustSchema(
		tuple.Column{Name: "sym", Kind: tuple.KindInt},
		tuple.Column{Name: "name", Kind: tuple.KindString},
		tuple.Column{Name: "tier", Kind: tuple.KindInt},
		tuple.Column{Name: "tag", Kind: tuple.KindString},
	)
	// Index column sets; a probe reads a stream tuple holding the row's
	// values reversed, so its columns are the mirror images.
	indexCols := [][]int{{0}, {1}, {2, 0}, {3, 1, 0}, {0, 1, 2, 3}}
	mirror := func(cols []int) []int {
		out := make([]int, len(cols))
		for i, c := range cols {
			out[i] = schema.Len() - 1 - c
		}
		return out
	}
	r := rand.New(rand.NewSource(5))
	names := []string{"y", "x", "z"}
	randRow := func() []tuple.Value {
		return []tuple.Value{tuple.Int(int64(r.Intn(3))), tuple.String_(names[r.Intn(3)]),
			tuple.Int(int64(r.Intn(2))), tuple.String_(names[r.Intn(2)])}
	}

	early := NewRelation("t", schema)
	for _, cols := range indexCols {
		early.EnsureIndex(cols)
	}
	var late *Table // indexed once half the operations have run
	var model []modelRow

	check := func(step int, tbl *Table, idx []int) {
		t.Helper()
		if tbl.Len() != len(model) {
			t.Fatalf("step %d: Len = %d, model %d", step, tbl.Len(), len(model))
		}
		var scanned [][]tuple.Value
		tbl.Scan(func(vals []tuple.Value) bool { scanned = append(scanned, vals); return true })
		var want [][]tuple.Value
		for _, m := range model {
			want = append(want, m.vals)
		}
		if fmt.Sprint(scanned) != fmt.Sprint(want) {
			t.Fatalf("step %d: Scan = %v, want %v", step, scanned, want)
		}
		for i, cols := range indexCols {
			probe := randRow()
			s := tuple.Tuple{Vals: slices.Clone(probe)}
			slices.Reverse(s.Vals)
			got := tbl.Probe(idx[i], s, mirror(cols), [][]tuple.Value{nil})[1:]
			var want [][]tuple.Value
			for _, m := range model {
				if (tuple.Tuple{Vals: m.vals}).KeyMatches(cols, (tuple.Tuple{Vals: probe}).Key(cols)) {
					want = append(want, m.vals)
				}
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("step %d: probe %v over %v = %v, want %v", step, probe, cols, got, want)
			}
		}
	}
	handles := func(tbl *Table) []int {
		var idx []int
		for _, cols := range indexCols {
			idx = append(idx, tbl.EnsureIndex(cols))
		}
		return idx
	}
	// reload checks the saved bytes against the model's rows — insertion
	// order, with the timestamps that tell duplicate copies apart — and
	// returns the table loaded from them.
	reload := func(step int, tbl *Table) *Table {
		t.Helper()
		var a, b, want bytes.Buffer
		if err := tbl.SaveState(checkpoint.NewEncoder(&a)); err != nil {
			t.Fatal(err)
		}
		enc := checkpoint.NewEncoder(&want)
		enc.Uvarint(uint64(len(model)))
		for _, m := range model {
			enc.Varint(m.ts)
			enc.Uvarint(uint64(len(m.vals)))
			for _, v := range m.vals {
				enc.Value(v)
			}
		}
		if !bytes.Equal(a.Bytes(), want.Bytes()) {
			t.Fatalf("step %d: SaveState differs from the model's rows", step)
		}
		fresh := NewRelation("t", schema)
		handles(fresh)
		if err := fresh.LoadState(checkpoint.NewDecoder(bytes.NewReader(a.Bytes()))); err != nil {
			t.Fatalf("step %d: LoadState: %v", step, err)
		}
		if err := fresh.SaveState(checkpoint.NewEncoder(&b)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("step %d: save → load → save wrote different bytes", step)
		}
		return fresh
	}

	const steps = 800
	for step := 0; step < steps; step++ {
		u, at := Update{Kind: Insert, TS: int64(step), Row: randRow()}, -1
		if r.Intn(2) == 0 {
			u.Kind = Delete
			if r.Intn(3) > 0 && len(model) > 0 {
				u.Row = slices.Clone(model[r.Intn(len(model))].vals)
			}
			at = slices.IndexFunc(model, func(m modelRow) bool {
				return (tuple.Tuple{Vals: m.vals}).SameVals(tuple.Tuple{Vals: u.Row})
			})
		}
		for _, tbl := range []*Table{early, late} {
			if tbl == nil {
				continue
			}
			err := tbl.Apply(u)
			if wantErr := u.Kind == Delete && at < 0; (err != nil) != wantErr {
				t.Fatalf("step %d: Apply(%v %v) = %v, want error %v", step, u.Kind, u.Row, err, wantErr)
			}
		}
		if u.Kind == Insert {
			model = append(model, modelRow{ts: u.TS, vals: slices.Clone(u.Row)})
		} else if at >= 0 {
			model = slices.Delete(model, at, at+1)
		}
		if step == steps/2 {
			// Rebuild the rows into a table that gets its indexes only now.
			late = NewRelation("t", schema)
			for _, m := range model {
				late.Apply(Update{Kind: Insert, TS: m.ts, Row: m.vals})
			}
		}
		check(step, early, handles(early))
		if late != nil {
			check(step, late, handles(late))
		}
		if step%37 == 0 {
			early = reload(step, early)
			check(step, early, handles(early))
		}
	}
}
