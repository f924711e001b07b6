package operator

import (
	"testing"

	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/statebuf"
	"repro/internal/tuple"
)

func symTable(retro bool) *relation.Table {
	schema := tuple.MustSchema(
		tuple.Column{Name: "sym", Kind: tuple.KindInt},
		tuple.Column{Name: "name", Kind: tuple.KindString},
	)
	if retro {
		return relation.NewRelation("companies", schema)
	}
	return relation.NewNRR("companies", schema)
}

func quote(ts, exp int64, sym int64) tuple.Tuple {
	return tuple.Tuple{TS: ts, Exp: exp, Vals: []tuple.Value{tuple.Int(sym)}}
}

func insertRow(t *testing.T, tbl *relation.Table, ts int64, sym int64, name string) {
	t.Helper()
	if err := tbl.Apply(relation.Update{Kind: relation.Insert, TS: ts, Row: []tuple.Value{tuple.Int(sym), tuple.String_(name)}}); err != nil {
		t.Fatal(err)
	}
}

func TestNRRJoinProbesCurrentState(t *testing.T) {
	tbl := symTable(false)
	insertRow(t, tbl, 0, 7, "Sun")
	j, err := NewNRRJoin(NRRJoinConfig{
		Stream: ipSchema1(), Table: tbl,
		StreamCols: []int{0}, TableCols: []int{0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if j.Class() != core.OpNRRJoin || j.Schema().Len() != 3 || j.Table() != tbl {
		t.Error("metadata wrong")
	}
	out := mustProcess(t, j, 0, quote(1, 101, 7), 1)
	if len(out) != 1 || out[0].Vals[2].S != "Sun" || out[0].Exp != 101 {
		t.Fatalf("probe: %v", out)
	}
	if out := mustProcess(t, j, 0, quote(2, 102, 9), 2); len(out) != 0 {
		t.Fatalf("unknown symbol joined: %v", out)
	}
	if j.StateSize() != 0 {
		t.Errorf("⋈NRR must be stateless in direct mode: %d", j.StateSize())
	}
}

// TestNRRJoinNonRetroactive is the stock-ticker scenario of Section 4.1:
// deleting a company must not retract previously returned quotes, and adding
// one must not join with previously arrived quotes.
func TestNRRJoinNonRetroactive(t *testing.T) {
	tbl := symTable(false)
	insertRow(t, tbl, 0, 7, "Sun")
	j, _ := NewNRRJoin(NRRJoinConfig{
		Stream: ipSchema1(), Table: tbl,
		StreamCols: []int{0}, TableCols: []int{0},
	})
	mustProcess(t, j, 0, quote(1, 101, 7), 1)
	// Delete the company: no retraction.
	if err := tbl.Apply(relation.Update{Kind: relation.Delete, TS: 2, Row: []tuple.Value{tuple.Int(7), tuple.String_("Sun")}}); err != nil {
		t.Fatal(err)
	}
	if out, err := j.ApplyTableUpdate(relation.Update{Kind: relation.Delete, TS: 2, Row: []tuple.Value{tuple.Int(7), tuple.String_("Sun")}}, 2); err != nil || len(out) != 0 {
		t.Fatalf("NRR delete must emit nothing: %v %v", out, err)
	}
	// Add a new company: no retroactive join either.
	insertRow(t, tbl, 3, 9, "IBM")
	if out, err := j.ApplyTableUpdate(relation.Update{Kind: relation.Insert, TS: 3, Row: []tuple.Value{tuple.Int(9), tuple.String_("IBM")}}, 3); err != nil || len(out) != 0 {
		t.Fatalf("NRR insert must emit nothing: %v %v", out, err)
	}
	// But future arrivals see the new state.
	out := mustProcess(t, j, 0, quote(4, 104, 9), 4)
	if len(out) != 1 || out[0].Vals[2].S != "IBM" {
		t.Fatalf("post-update probe: %v", out)
	}
	if out := mustProcess(t, j, 0, quote(5, 105, 7), 5); len(out) != 0 {
		t.Fatalf("deleted symbol joined: %v", out)
	}
}

// TestNRRJoinNTModeRetraction checks the negative-tuple strategy: expiring
// stream tuples retract exactly the results they produced, even if the table
// has changed since.
func TestNRRJoinNTModeRetraction(t *testing.T) {
	tbl := symTable(false)
	insertRow(t, tbl, 0, 7, "Sun")
	j, _ := NewNRRJoin(NRRJoinConfig{
		Stream: ipSchema1(), Table: tbl,
		StreamCols: []int{0}, TableCols: []int{0},
		LogResults: true,
	})
	q := quote(1, 101, 7)
	out := mustProcess(t, j, 0, q, 1)
	if len(out) != 1 || j.StateSize() != 1 {
		t.Fatalf("log missing: %v / %d", out, j.StateSize())
	}
	// Table changes in between.
	if err := tbl.Apply(relation.Update{Kind: relation.Delete, TS: 2, Row: []tuple.Value{tuple.Int(7), tuple.String_("Sun")}}); err != nil {
		t.Fatal(err)
	}
	// The window retracts the quote; the old result must be retracted even
	// though re-probing the table would now find nothing.
	neg := mustProcess(t, j, 0, q.Negative(101), 101)
	if len(neg) != 1 || !neg[0].Neg || neg[0].Vals[2].S != "Sun" {
		t.Fatalf("NT retraction: %v", neg)
	}
	if j.StateSize() != 0 {
		t.Errorf("log not drained: %d", j.StateSize())
	}
	// Retraction of an unlogged tuple is silent.
	if out := mustProcess(t, j, 0, quote(3, 103, 9).Negative(103), 103); len(out) != 0 {
		t.Fatalf("unlogged retraction: %v", out)
	}
}

func TestNRRJoinRejectsRetroactiveTable(t *testing.T) {
	if _, err := NewNRRJoin(NRRJoinConfig{
		Stream: ipSchema1(), Table: symTable(true),
		StreamCols: []int{0}, TableCols: []int{0},
	}); err == nil {
		t.Error("retroactive table accepted by ⋈NRR")
	}
}

func TestRelJoinRetroactiveUpdates(t *testing.T) {
	tbl := symTable(true)
	insertRow(t, tbl, 0, 7, "Sun")
	j, err := NewRelJoin(RelJoinConfig{
		Stream: ipSchema1(), Table: tbl,
		StreamCols: []int{0}, TableCols: []int{0},
		StreamBuf: statebuf.Config{Kind: statebuf.KindFIFO},
	})
	if err != nil {
		t.Fatal(err)
	}
	if j.Class() != core.OpRelJoin || j.Table() != tbl {
		t.Error("metadata wrong")
	}
	// Stream arrival joins current rows.
	out := mustProcess(t, j, 0, quote(1, 101, 7), 1)
	if len(out) != 1 || out[0].Vals[2].S != "Sun" {
		t.Fatalf("probe: %v", out)
	}
	// Retroactive insert at time 2: joins the stored window tuple.
	insertRow(t, tbl, 2, 7, "Sun Microsystems")
	out, err = j.ApplyTableUpdate(relation.Update{Kind: relation.Insert, TS: 2, Row: []tuple.Value{tuple.Int(7), tuple.String_("Sun Microsystems")}}, 2)
	if err != nil || len(out) != 1 || out[0].Neg || out[0].Vals[2].S != "Sun Microsystems" {
		t.Fatalf("retroactive insert: %v %v", out, err)
	}
	// Retroactive delete retracts previously reported results.
	out, err = j.ApplyTableUpdate(relation.Update{Kind: relation.Delete, TS: 3, Row: []tuple.Value{tuple.Int(7), tuple.String_("Sun")}}, 3)
	if err != nil || len(out) != 1 || !out[0].Neg || out[0].Vals[2].S != "Sun" {
		t.Fatalf("retroactive delete: %v %v", out, err)
	}
	if j.StateSize() != 1 {
		t.Errorf("window state = %d", j.StateSize())
	}
}

func TestRelJoinSkipsExpiredWindowTuples(t *testing.T) {
	tbl := symTable(true)
	j, _ := NewRelJoin(RelJoinConfig{
		Stream: ipSchema1(), Table: tbl,
		StreamCols: []int{0}, TableCols: []int{0},
		StreamBuf: statebuf.Config{Kind: statebuf.KindFIFO},
	})
	mustProcess(t, j, 0, quote(1, 10, 7), 1)
	mustAdvance(t, j, 50) // the quote expired (and was trimmed)
	insertRow(t, tbl, 50, 7, "Sun")
	out, err := j.ApplyTableUpdate(relation.Update{Kind: relation.Insert, TS: 50, Row: []tuple.Value{tuple.Int(7), tuple.String_("Sun")}}, 50)
	if err != nil || len(out) != 0 {
		t.Fatalf("expired window tuple joined: %v %v", out, err)
	}
	if j.StateSize() != 0 {
		t.Errorf("state not trimmed: %d", j.StateSize())
	}
}

func TestRelJoinNegativeStreamArrival(t *testing.T) {
	tbl := symTable(true)
	insertRow(t, tbl, 0, 7, "Sun")
	j, _ := NewRelJoin(RelJoinConfig{
		Stream: ipSchema1(), Table: tbl,
		StreamCols: []int{0}, TableCols: []int{0},
		StreamBuf: statebuf.Config{Kind: statebuf.KindHash},
	})
	q := quote(1, 101, 7)
	mustProcess(t, j, 0, q, 1)
	out := mustProcess(t, j, 0, q.Negative(2), 2)
	if len(out) != 1 || !out[0].Neg {
		t.Fatalf("stream retraction: %v", out)
	}
	if out := mustProcess(t, j, 0, q.Negative(3), 3); len(out) != 0 {
		t.Fatalf("double retraction: %v", out)
	}
}

func TestRelJoinValidationAndSides(t *testing.T) {
	tbl := symTable(true)
	if _, err := NewRelJoin(RelJoinConfig{Stream: ipSchema1(), Table: tbl}); err == nil {
		t.Error("empty cols accepted")
	}
	if _, err := NewRelJoin(RelJoinConfig{Stream: ipSchema1(), Table: tbl, StreamCols: []int{9}, TableCols: []int{0}}); err == nil {
		t.Error("bad stream col accepted")
	}
	if _, err := NewRelJoin(RelJoinConfig{Stream: ipSchema1(), Table: tbl, StreamCols: []int{0}, TableCols: []int{9}}); err == nil {
		t.Error("bad table col accepted")
	}
	j, _ := NewRelJoin(RelJoinConfig{Stream: ipSchema1(), Table: tbl, StreamCols: []int{0}, TableCols: []int{0}, StreamBuf: statebuf.Config{Kind: statebuf.KindFIFO}})
	if _, err := processTuple(j, 1, quote(1, 101, 7), 1); err == nil {
		t.Error("bad side accepted")
	}
	nj, _ := NewNRRJoin(NRRJoinConfig{Stream: ipSchema1(), Table: symTable(false), StreamCols: []int{0}, TableCols: []int{0}})
	if _, err := processTuple(nj, 1, quote(1, 101, 7), 1); err == nil {
		t.Error("bad side accepted")
	}
	if out := mustAdvance(t, nj, 100); out != nil {
		t.Error("⋈NRR Advance must be empty")
	}
}
