package statebuf

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/tuple"
)

// pair is a two-part payload: either part may be absent, as a δ auxiliary or
// a negation's W2 list can be.
type pair struct{ a, b []int64 }

// savePair writes a table of pairs as two sections, as a δ or a negation does.
func savePair(tb *Table[pair], enc *checkpoint.Encoder) {
	put := func(vs []int64) {
		enc.Uvarint(uint64(len(vs)))
		for _, v := range vs {
			enc.Varint(v)
		}
	}
	hasA := func(p *pair) bool { return len(p.a) > 0 }
	tb.Save(enc, hasA, nil, func(p *pair) { put(p.a) })
	tb.Save(enc, func(p *pair) bool { return len(p.b) > 0 }, hasA, func(p *pair) { put(p.b) })
}

func loadPair(tb *Table[pair], dec *checkpoint.Decoder) error {
	get := func(vs *[]int64) {
		n := dec.Count()
		for i := 0; i < n && dec.Err() == nil; i++ {
			*vs = append(*vs, dec.Varint())
		}
	}
	if err := tb.Load(dec, func(p *pair, _ bool) error { get(&p.a); return nil }); err != nil {
		return err
	}
	return tb.Load(dec, func(p *pair, _ bool) error { get(&p.b); return nil })
}

// TestTableAgainstMap drives a table and a map through the same random
// upserts (by key and by row) and deletes, then checks lookups, Len, Range
// and that a two-part save → load → save writes the same bytes — including
// slots only the second part holds, which a reload adds after the others.
func TestTableAgainstMap(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	cols := []int{0, 1}
	row := func(i int) tuple.Tuple {
		return tuple.New(0, tuple.Int(int64(i%13)), tuple.String_([]string{"ftp", "http", "smtp"}[i%3]))
	}
	var tb Table[pair]
	model := make(map[tuple.Key]pair)
	for step := 0; step < 2000; step++ {
		tp := row(r.Intn(60))
		k := tp.Key(cols)
		switch r.Intn(4) {
		case 0:
			if ref := tb.FindRow(tp, cols); ref != 0 {
				tb.Delete(ref)
			}
			delete(model, k)
		case 1:
			ref, fresh := tb.Upsert(k)
			if _, had := model[k]; fresh == had {
				t.Fatalf("step %d: Upsert(%v) fresh=%v, model has it: %v", step, k, fresh, had)
			}
			tb.At(ref).a = append(tb.At(ref).a, int64(step))
			model[k] = *tb.At(ref)
		default:
			ref, fresh := tb.UpsertRow(tp, cols)
			if _, had := model[k]; fresh == had {
				t.Fatalf("step %d: UpsertRow(%v) fresh=%v, model has it: %v", step, k, fresh, had)
			}
			tb.At(ref).b = append(tb.At(ref).b, int64(step))
			model[k] = *tb.At(ref)
		}
	}
	if tb.Len() != len(model) {
		t.Fatalf("Len = %d, model %d", tb.Len(), len(model))
	}
	seen := 0
	tb.Range(func(ref int32) {
		seen++
		if tb.Find(tb.Key(ref)) != ref {
			t.Errorf("Range visited %v, which Find does not locate there", tb.Key(ref))
		}
	})
	if seen != len(model) {
		t.Fatalf("Range visited %d slots, model %d", seen, len(model))
	}

	var first, again bytes.Buffer
	savePair(&tb, checkpoint.NewEncoder(&first))
	var loaded Table[pair]
	if err := loadPair(&loaded, checkpoint.NewDecoder(bytes.NewReader(first.Bytes()))); err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != len(model) {
		t.Fatalf("loaded Len = %d, model %d", loaded.Len(), len(model))
	}
	for k, want := range model {
		ref := loaded.Find(k)
		if ref == 0 || len(loaded.At(ref).a) != len(want.a) || len(loaded.At(ref).b) != len(want.b) {
			t.Fatalf("loaded slot for %v differs from the model", k)
		}
	}
	savePair(&loaded, checkpoint.NewEncoder(&again))
	if !bytes.Equal(first.Bytes(), again.Bytes()) {
		t.Fatalf("save → load → save is not a fixed point (%d vs %d bytes)", first.Len(), again.Len())
	}
}
