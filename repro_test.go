package repro_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"testing"

	"repro"
)

func linkSchema() *repro.Schema {
	return repro.MustSchema(
		repro.Column{Name: "src", Kind: repro.KindInt},
		repro.Column{Name: "proto", Kind: repro.KindString},
		repro.Column{Name: "bytes", Kind: repro.KindInt},
	)
}

func TestQuickstartJoin(t *testing.T) {
	schema := linkSchema()
	left := repro.Stream(0, schema, repro.TimeWindow(100)).Where(repro.Col("proto").EqStr("ftp"))
	right := repro.Stream(1, schema, repro.TimeWindow(100)).Where(repro.Col("proto").EqStr("ftp"))
	q := left.JoinOn(right, "src")

	for _, strat := range []repro.Strategy{repro.NT, repro.Direct, repro.UPA} {
		eng, err := repro.Compile(q, strat)
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		must := func(err error) {
			if err != nil {
				t.Fatalf("%v: %v", strat, err)
			}
		}
		must(eng.Push(0, 1, repro.Int(7), repro.Str("ftp"), repro.Int(10)))
		must(eng.Push(1, 2, repro.Int(7), repro.Str("ftp"), repro.Int(20)))
		must(eng.Push(0, 3, repro.Int(7), repro.Str("http"), repro.Int(30)))
		rows, err := eng.Snapshot()
		must(err)
		if len(rows) != 1 || !rows[0].Vals[0].Identical(repro.Int(7)) {
			t.Fatalf("%v: snapshot = %v", strat, rows)
		}
		// The join result expires when its first constituent does.
		must(eng.Advance(101))
		if n, _ := eng.ResultCount(); n != 0 {
			t.Fatalf("%v: results after window slid: %d", strat, n)
		}
	}
}

func TestBuilderErrorsSurfaceAtCompile(t *testing.T) {
	schema := linkSchema()
	cases := map[string]repro.Node{
		"bad-where-col":  repro.Stream(0, schema, repro.TimeWindow(10)).Where(repro.Col("nope").Eq(repro.Int(1))),
		"bad-select":     repro.Stream(0, schema, repro.TimeWindow(10)).Select("nope"),
		"bad-join-col":   repro.Stream(0, schema, repro.TimeWindow(10)).JoinOn(repro.Stream(1, schema, repro.TimeWindow(10)), "nope"),
		"empty-join":     repro.Stream(0, schema, repro.TimeWindow(10)).JoinOn(repro.Stream(1, schema, repro.TimeWindow(10))),
		"nil-schema":     repro.Stream(0, nil, repro.TimeWindow(10)),
		"groupby-middle": repro.Stream(0, schema, repro.TimeWindow(10)).GroupBy([]string{"src"}, repro.CountAll()).Select("src"),
		"bad-agg-col":    repro.Stream(0, schema, repro.TimeWindow(10)).GroupBy([]string{"src"}, repro.SumOf("nope")),
		"bad-except":     repro.Stream(0, schema, repro.TimeWindow(10)).Except(repro.Stream(1, schema, repro.TimeWindow(10)), []string{"nope"}, []string{"src"}),
	}
	for name, q := range cases {
		if _, err := repro.Compile(q, repro.UPA); err == nil {
			t.Errorf("%s: compile succeeded", name)
		}
		if q.Err() == nil && name != "groupby-middle" {
			// groupby-middle is caught at Compile (placement rule).
			t.Errorf("%s: builder did not record an error", name)
		}
	}
}

func TestGroupByFacade(t *testing.T) {
	schema := linkSchema()
	q := repro.Stream(0, schema, repro.TimeWindow(50)).
		GroupBy([]string{"proto"}, repro.CountAll(), repro.SumOf("bytes"), repro.MinOf("bytes"), repro.MaxOf("bytes"), repro.AvgOf("bytes"))
	eng, err := repro.Compile(q, repro.UPA)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Push(0, 1, repro.Int(1), repro.Str("ftp"), repro.Int(10)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Push(0, 2, repro.Int(2), repro.Str("ftp"), repro.Int(30)); err != nil {
		t.Fatal(err)
	}
	rows, err := eng.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %v", rows)
	}
	got := rows[0].Vals
	if got[0].S != "ftp" || !got[1].Identical(repro.Int(2)) || !got[2].Identical(repro.Float(40)) ||
		!got[3].Identical(repro.Int(10)) || !got[4].Identical(repro.Int(30)) || !got[5].Identical(repro.Float(20)) {
		t.Errorf("group row = %v", got)
	}
}

func TestExceptAndIntersectFacade(t *testing.T) {
	schema := linkSchema()
	a := repro.Stream(0, schema, repro.TimeWindow(100)).Select("src")
	b := repro.Stream(1, schema, repro.TimeWindow(100)).Select("src")
	q := a.Except(b, []string{"src"}, []string{"src"})
	eng, err := repro.Compile(q, repro.UPA)
	if err != nil {
		t.Fatal(err)
	}
	eng.Push(0, 1, repro.Int(5), repro.Str("x"), repro.Int(1))
	if n, _ := eng.ResultCount(); n != 1 {
		t.Fatal("negation should admit the unmatched tuple")
	}
	eng.Push(1, 2, repro.Int(5), repro.Str("y"), repro.Int(2))
	if n, _ := eng.ResultCount(); n != 0 {
		t.Fatal("negation should retract on a matching W2 arrival")
	}

	x := repro.Stream(0, schema, repro.TimeWindow(100)).Select("src").
		IntersectWith(repro.Stream(1, schema, repro.TimeWindow(100)).Select("src"))
	eng2, err := repro.Compile(x, repro.Direct)
	if err != nil {
		t.Fatal(err)
	}
	eng2.Push(0, 1, repro.Int(5), repro.Str("x"), repro.Int(1))
	eng2.Push(1, 2, repro.Int(5), repro.Str("y"), repro.Int(2))
	if n, _ := eng2.ResultCount(); n != 1 {
		t.Fatal("intersection should match")
	}
}

func TestUnionFacade(t *testing.T) {
	schema := linkSchema()
	q := repro.Union(
		repro.Stream(0, schema, repro.TimeWindow(50)),
		repro.Stream(1, schema, repro.TimeWindow(50)),
	)
	eng, err := repro.Compile(q, repro.UPA)
	if err != nil {
		t.Fatal(err)
	}
	eng.Push(0, 1, repro.Int(1), repro.Str("a"), repro.Int(1))
	eng.Push(1, 2, repro.Int(2), repro.Str("b"), repro.Int(2))
	if n, _ := eng.ResultCount(); n != 2 {
		t.Fatalf("union count = %d", n)
	}
}

func TestTableJoinFacade(t *testing.T) {
	schema := linkSchema()
	tblSchema := repro.MustSchema(
		repro.Column{Name: "sym", Kind: repro.KindInt},
		repro.Column{Name: "name", Kind: repro.KindString},
	)
	nrr := repro.NewNRR("companies", tblSchema)
	q := repro.Stream(0, schema, repro.TimeWindow(100)).JoinTable(nrr, []string{"src"}, []string{"sym"})
	eng, err := repro.Compile(q, repro.UPA)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.UpdateTable(nrr, repro.TableUpdate{Kind: repro.InsertRow, TS: 0, Row: []repro.Value{repro.Int(7), repro.Str("Sun")}}); err != nil {
		t.Fatal(err)
	}
	eng.Push(0, 1, repro.Int(7), repro.Str("ftp"), repro.Int(1))
	rows, _ := eng.Snapshot()
	if len(rows) != 1 || rows[0].Vals[4].S != "Sun" {
		t.Fatalf("table join rows = %v", rows)
	}
	// Non-retroactive: deleting the row keeps the result.
	if err := eng.UpdateTable(nrr, repro.TableUpdate{Kind: repro.DeleteRow, TS: 2, Row: []repro.Value{repro.Int(7), repro.Str("Sun")}}); err != nil {
		t.Fatal(err)
	}
	if n, _ := eng.ResultCount(); n != 1 {
		t.Fatal("NRR delete must not retract")
	}
}

func TestExplainAndPattern(t *testing.T) {
	schema := linkSchema()
	q := repro.Stream(0, schema, repro.TimeWindow(100)).
		Except(repro.Stream(1, schema, repro.TimeWindow(100)), []string{"src"}, []string{"src"})
	eng, err := repro.Compile(q, repro.UPA)
	if err != nil {
		t.Fatal(err)
	}
	if eng.Pattern() != repro.Strict {
		t.Errorf("pattern = %v", eng.Pattern())
	}
	var buf bytes.Buffer
	if err := eng.Explain(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"UPA", "negate", "[STR]", "[WKS]"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain missing %q:\n%s", want, out)
		}
	}
	if eng.Schema().Len() != 3 {
		t.Errorf("schema = %v", eng.Schema())
	}
}

func TestOptionsAndOptimizer(t *testing.T) {
	schema := linkSchema()
	neg := repro.Stream(0, schema, repro.TimeWindow(100)).
		Except(repro.Stream(1, schema, repro.TimeWindow(100)), []string{"src"}, []string{"src"})
	q := neg.JoinOn(repro.Stream(2, schema, repro.TimeWindow(100)).Where(repro.Col("proto").EqStr("ftp")), "src")

	var emitted int
	eng, err := repro.Compile(q, repro.UPA,
		repro.WithPartitions(5),
		repro.WithSTRHash(),
		repro.WithLazyInterval(10),
		repro.WithEagerInterval(1),
		repro.WithOptimizer(),
		repro.WithOnEmit(func(repro.Tuple) { emitted++ }),
		repro.WithStreamStats(0, 1, map[int]float64{0: 50}),
	)
	if err != nil {
		t.Fatal(err)
	}
	eng.Push(0, 1, repro.Int(7), repro.Str("x"), repro.Int(1))
	eng.Push(2, 2, repro.Int(7), repro.Str("ftp"), repro.Int(2))
	if n, _ := eng.ResultCount(); n != 1 {
		t.Fatalf("results = %d", n)
	}
	if emitted == 0 {
		t.Error("OnEmit not called")
	}
	// STR partitioned option also compiles and runs.
	if _, err := repro.Compile(q, repro.UPA, repro.WithSTRPartitioned()); err != nil {
		t.Fatal(err)
	}
}

// TestExpirationOverflowRefusedFacade: an arrival whose window expiration
// would pass the largest timestamp is refused by Push and PushBatch alike,
// under every strategy and on plans that take the row and the columnar batch
// path, with the clock and upa_arrivals_total left where the accepted
// arrivals put them. The last timestamp that fits is admitted and keeps its
// rows in the answer after a pass at a later time.
func TestExpirationOverflowRefusedFacade(t *testing.T) {
	const size = 10
	schema := linkSchema()
	win := func(stream int) repro.Node { return repro.Stream(stream, schema, repro.TimeWindow(size)) }
	plans := map[string]repro.Node{
		"window":   win(0),
		"distinct": win(0).Select("src").Distinct(),
		"groupby":  win(0).GroupBy([]string{"proto"}, repro.CountAll()),
		"join":     win(0).Where(repro.Col("proto").EqStr("ftp")).JoinOn(win(1).Where(repro.Col("proto").EqStr("ftp")), "src"),
	}
	vals := []repro.Value{repro.Int(7), repro.Str("ftp"), repro.Int(1)}
	over := int64(math.MaxInt64 - size)
	for name, q := range plans {
		for _, strat := range []repro.Strategy{repro.UPA, repro.NT, repro.Direct} {
			for _, batched := range []bool{false, true} {
				reg := repro.NewMetricsRegistry()
				eng, err := repro.Compile(q, strat, repro.WithMetrics(reg))
				if err != nil {
					t.Fatalf("%s/%v: %v", name, strat, err)
				}
				deliver := func(batch ...repro.Arrival) error {
					if batched {
						return eng.PushBatch(batch)
					}
					for _, a := range batch {
						if err := eng.Push(a.Stream, a.TS, a.Vals...); err != nil {
							return err
						}
					}
					return nil
				}
				arrivals := func() int64 {
					if err := eng.Sync(); err != nil {
						t.Fatal(err)
					}
					return reg.Snapshot().Counters["upa_arrivals_total"]
				}
				label := fmt.Sprintf("%s/%v/batched=%v", name, strat, batched)
				if err := deliver(repro.Arrival{Stream: 0, TS: 5, Vals: vals}); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if err := deliver(repro.Arrival{Stream: 0, TS: 6, Vals: vals}, repro.Arrival{Stream: 0, TS: over, Vals: vals}); err == nil || !strings.Contains(err.Error(), "overflows the expiration time") {
					t.Fatalf("%s: arrival at %d: error %v, want an overflow refusal", label, over, err)
				}
				if eng.Clock() != 6 || arrivals() != 2 {
					t.Errorf("%s: clock %d, %d arrivals after the refusal, want 6 and 2", label, eng.Clock(), arrivals())
				}
				last := over - 1
				batch := []repro.Arrival{{Stream: 0, TS: last, Vals: vals}}
				if name == "join" {
					batch = append(batch, repro.Arrival{Stream: 1, TS: last, Vals: vals})
				}
				if err := deliver(batch...); err != nil {
					t.Fatalf("%s: arrivals at %d: %v", label, last, err)
				}
				if err := eng.Advance(last + size - 1); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if n, err := eng.ResultCount(); err != nil || n != 1 {
					t.Errorf("%s: %d rows after Advance(%d), %v; want the last arrival's one row", label, n, last+size-1, err)
				}
			}
		}
	}
}

func TestCountWindowFacade(t *testing.T) {
	schema := linkSchema()
	q := repro.Stream(0, schema, repro.CountWindow(2)).Select("src")
	eng, err := repro.Compile(q, repro.UPA)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 3; i++ {
		eng.Push(0, i, repro.Int(i), repro.Str("a"), repro.Int(1))
	}
	rows, _ := eng.Snapshot()
	if len(rows) != 2 {
		t.Fatalf("count window rows = %v", rows)
	}
}

func TestMonotonicStreamFacade(t *testing.T) {
	schema := linkSchema()
	q := repro.Stream(0, schema, repro.Unbounded()).Where(repro.Col("bytes").Gt(repro.Int(5)))
	eng, err := repro.Compile(q, repro.UPA)
	if err != nil {
		t.Fatal(err)
	}
	if eng.Pattern() != repro.Monotonic {
		t.Errorf("pattern = %v", eng.Pattern())
	}
	eng.Push(0, 1, repro.Int(1), repro.Str("a"), repro.Int(10))
	eng.Push(0, 2, repro.Int(2), repro.Str("a"), repro.Int(1))
	if n, _ := eng.ResultCount(); n != 1 {
		t.Fatalf("monotonic count = %d", n)
	}
}

func TestTraceFacade(t *testing.T) {
	recs := repro.GenerateTrace(repro.TraceConfig{Tuples: 100, Seed: 1})
	if len(recs) != 100 || repro.TraceSchema().Len() != 6 {
		t.Fatal("trace facade")
	}
}

func TestCondCombinators(t *testing.T) {
	schema := linkSchema()
	q := repro.Stream(0, schema, repro.TimeWindow(50)).Where(repro.All(
		repro.Any(repro.Col("proto").EqStr("ftp"), repro.Col("proto").EqStr("telnet")),
		repro.NotCond(repro.Col("bytes").Ge(repro.Int(100))),
		repro.Col("src").Ne(repro.Int(0)),
		repro.Col("src").Le(repro.Int(10)),
		repro.Col("src").Lt(repro.Int(10)),
		repro.Col("src").EqCol("src"),
		repro.Col("proto").EqWithSelectivity(repro.Str("ftp"), 0.04),
	))
	eng, err := repro.Compile(q, repro.Direct)
	if err != nil {
		t.Fatal(err)
	}
	eng.Push(0, 1, repro.Int(5), repro.Str("ftp"), repro.Int(10))  // passes
	eng.Push(0, 2, repro.Int(5), repro.Str("smtp"), repro.Int(10)) // fails Any
	eng.Push(0, 3, repro.Int(0), repro.Str("ftp"), repro.Int(10))  // fails Ne
	if n, _ := eng.ResultCount(); n != 1 {
		t.Fatalf("cond count = %d", n)
	}
	// Unknown columns in combinators surface errors.
	bad := repro.Stream(0, schema, repro.TimeWindow(50)).Where(repro.All(repro.Col("nope").Eq(repro.Int(1))))
	if _, err := repro.Compile(bad, repro.UPA); err == nil {
		t.Error("bad column in All accepted")
	}
	bad2 := repro.Stream(0, schema, repro.TimeWindow(50)).Where(repro.Col("src").EqCol("nope"))
	if _, err := repro.Compile(bad2, repro.UPA); err == nil {
		t.Error("bad column in EqCol accepted")
	}
}

func TestParseQueryEndToEnd(t *testing.T) {
	schema := linkSchema()
	cat := repro.Catalog{
		Streams: map[string]repro.StreamDef{
			"S0": {ID: 0, Schema: schema},
			"S1": {ID: 1, Schema: schema},
		},
	}
	q, err := repro.ParseQuery(
		"SELECT * FROM S0 [RANGE 100] JOIN S1 [RANGE 100] ON src WHERE proto = 'ftp'", cat)
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range []repro.Strategy{repro.NT, repro.Direct, repro.UPA} {
		eng, err := repro.Compile(q, strat)
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		eng.Push(0, 1, repro.Int(7), repro.Str("ftp"), repro.Int(1))
		eng.Push(1, 2, repro.Int(7), repro.Str("ftp"), repro.Int(2))
		eng.Push(0, 3, repro.Int(7), repro.Str("http"), repro.Int(3))
		if n, _ := eng.ResultCount(); n != 1 {
			t.Fatalf("%v: results = %d", strat, n)
		}
	}
	// Parse errors surface both immediately and at Compile.
	bad, err := repro.ParseQuery("SELECT nope FROM S0 [RANGE 10]", cat)
	if err == nil || bad.Err() == nil {
		t.Error("bad query accepted")
	}
	if _, err := repro.Compile(bad, repro.UPA); err == nil {
		t.Error("bad query compiled")
	}
}

func TestParseQueryGroupBy(t *testing.T) {
	cat := repro.Catalog{Streams: map[string]repro.StreamDef{"S0": {ID: 0, Schema: linkSchema()}}}
	q, err := repro.ParseQuery("SELECT proto, COUNT(*) FROM S0 [RANGE 50] GROUP BY proto", cat)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := repro.Compile(q, repro.UPA)
	if err != nil {
		t.Fatal(err)
	}
	eng.Push(0, 1, repro.Int(1), repro.Str("ftp"), repro.Int(1))
	eng.Push(0, 2, repro.Int(2), repro.Str("ftp"), repro.Int(1))
	rows, _ := eng.Snapshot()
	if len(rows) != 1 || !rows[0].Vals[1].Identical(repro.Int(2)) {
		t.Fatalf("group rows = %v", rows)
	}
}

func TestLookup(t *testing.T) {
	schema := linkSchema()
	// Keyed view (group-by): lookup by group value.
	g := repro.Stream(0, schema, repro.TimeWindow(50)).
		GroupBy([]string{"proto"}, repro.CountAll())
	eng, err := repro.Compile(g, repro.UPA)
	if err != nil {
		t.Fatal(err)
	}
	eng.Push(0, 1, repro.Int(1), repro.Str("ftp"), repro.Int(1))
	eng.Push(0, 2, repro.Int(2), repro.Str("ftp"), repro.Int(1))
	rows, err := eng.Lookup(repro.Str("ftp"))
	if err != nil || len(rows) != 1 || !rows[0].Vals[1].Identical(repro.Int(2)) {
		t.Fatalf("keyed lookup: %v %v", rows, err)
	}
	if rows, err := eng.Lookup(repro.Str("nntp")); err != nil || len(rows) != 0 {
		t.Fatalf("absent group lookup: %v %v", rows, err)
	}
	// NT hash view: lookup by full row.
	j := repro.Stream(0, schema, repro.TimeWindow(50)).Select("src")
	nt, err := repro.Compile(j, repro.NT)
	if err != nil {
		t.Fatal(err)
	}
	nt.Push(0, 1, repro.Int(7), repro.Str("ftp"), repro.Int(1))
	rows, err = nt.Lookup(repro.Int(7))
	if err != nil || len(rows) != 1 {
		t.Fatalf("hash lookup: %v %v", rows, err)
	}
	// FIFO view (UPA over WKS root): no keyed access, typed sentinel.
	upa, err := repro.Compile(j, repro.UPA)
	if err != nil {
		t.Fatal(err)
	}
	upa.Push(0, 1, repro.Int(7), repro.Str("ftp"), repro.Int(1))
	if _, err := upa.Lookup(repro.Int(7)); !errors.Is(err, repro.ErrNoKeyedView) {
		t.Fatalf("FIFO view lookup error = %v, want ErrNoKeyedView", err)
	}
	// Partitioned view under a strict root: the calendar indexes the
	// retraction key (the negation attribute), so it answers lookups by it.
	neg := repro.Stream(0, schema, repro.TimeWindow(50)).
		Except(repro.Stream(1, schema, repro.TimeWindow(50)), []string{"src"}, []string{"src"})
	str, err := repro.Compile(neg, repro.UPA, repro.WithSTRPartitioned())
	if err != nil {
		t.Fatal(err)
	}
	str.Push(0, 1, repro.Int(7), repro.Str("ftp"), repro.Int(1))
	str.Push(0, 2, repro.Int(8), repro.Str("ftp"), repro.Int(1))
	str.Push(1, 3, repro.Int(8), repro.Str("ftp"), repro.Int(1)) // retracts src 8
	if rows, err := str.Lookup(repro.Int(7)); err != nil || len(rows) != 1 {
		t.Fatalf("calendar lookup: %v %v", rows, err)
	}
	if rows, err := str.Lookup(repro.Int(8)); err != nil || len(rows) != 0 {
		t.Fatalf("calendar lookup of a retracted row: %v %v", rows, err)
	}
}

// errOf keeps the error of a two-result read.
func errOf[T any](_ T, err error) error { return err }

// TestUnregisteredEngineQueryRefusesReads: once the engine's own query is
// unregistered from its registry, the engine's query reads fail naming it
// instead of answering from the retired view, while the query that stays
// registered keeps answering.
func TestUnregisteredEngineQueryRefusesReads(t *testing.T) {
	schema := linkSchema()
	eng, err := repro.Compile(repro.Stream(0, schema, repro.TimeWindow(100)).
		Where(repro.Col("proto").EqStr("ftp")).GroupBy([]string{"src"}, repro.CountAll()), repro.UPA)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	other, err := eng.Registry.Register(repro.Stream(0, schema, repro.TimeWindow(100)), repro.UPA)
	if err != nil {
		t.Fatal(err)
	}
	for ts, proto := range []string{"ftp", "http"} {
		if err := eng.Push(0, int64(ts+1), repro.Int(1), repro.Str(proto), repro.Int(5)); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := eng.ResultCount(); err != nil || n != 1 {
		t.Fatalf("ResultCount before unregister = %d, %v; want 1", n, err)
	}
	if _, err := eng.Registry.Unregister(eng.Query); err != nil {
		t.Fatal(err)
	}
	for read, err := range map[string]error{
		"Snapshot":       errOf(eng.Snapshot()),
		"ResultCount":    errOf(eng.ResultCount()),
		"Lookup":         errOf(eng.Lookup(repro.Int(1))),
		"Checkpoint":     eng.Checkpoint(io.Discard),
		"ExplainAnalyze": eng.ExplainAnalyze(io.Discard),
	} {
		if err == nil || !strings.Contains(err.Error(), eng.Name()) {
			t.Errorf("%s after unregister: %v, want an error naming %s", read, err, eng.Name())
		}
	}
	if n, err := other.ResultCount(); err != nil || n != 2 {
		t.Fatalf("surviving query ResultCount = %d, %v; want 2", n, err)
	}
}

func TestWithShards(t *testing.T) {
	schema := linkSchema()
	build := func() repro.Node {
		left := repro.Stream(0, schema, repro.TimeWindow(100)).Where(repro.Col("proto").EqStr("ftp"))
		right := repro.Stream(1, schema, repro.TimeWindow(100)).Where(repro.Col("proto").EqStr("ftp"))
		return left.JoinOn(right, "src")
	}
	seq, err := repro.Compile(build(), repro.UPA)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := repro.Compile(build(), repro.UPA, repro.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	if sh.Shards() != 4 || sh.ShardFallbackReason() != "" {
		t.Fatalf("shards=%d reason=%q", sh.Shards(), sh.ShardFallbackReason())
	}
	protos := []string{"ftp", "http", "ftp", "telnet"}
	var batch []repro.Arrival
	for ts := int64(1); ts <= 200; ts++ {
		vals := []repro.Value{repro.Int(ts % 9), repro.Str(protos[ts%4]), repro.Int(ts)}
		if err := seq.Push(int(ts%2), ts, vals...); err != nil {
			t.Fatal(err)
		}
		batch = append(batch, repro.Arrival{Stream: int(ts % 2), TS: ts, Vals: vals})
	}
	if err := sh.PushBatch(batch); err != nil {
		t.Fatal(err)
	}
	a, err := seq.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := sh.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("sharded snapshot has %d rows, sequential %d", len(b), len(a))
	}
	// A partitioned engine's registry takes no further query. It holds one
	// query, so its checkpoint is that query's: a deferred PushBatch of 49
	// arrivals is replayed into it, and it restores into a registry compiled
	// the same way to the same, non-empty answer.
	if _, err := sh.Registry.Register(build(), repro.UPA); err == nil {
		t.Fatal("Register accepted on a partitioned engine")
	}
	if s := sh.Sharing(); s.Queries != 1 || s.Components != 4 {
		t.Fatalf("Sharing() = %+v, want 1 query in 4 components", s)
	}
	var more []repro.Arrival
	for ts := int64(201); ts < 250; ts++ {
		more = append(more, repro.Arrival{Stream: int(ts % 2), TS: ts,
			Vals: []repro.Value{repro.Int(ts % 9), repro.Str("ftp"), repro.Int(ts)}})
	}
	if err := sh.PushBatch(more); err != nil {
		t.Fatal(err)
	}
	var regCkpt, ckpt bytes.Buffer
	if err := sh.Registry.Checkpoint(&regCkpt); err != nil {
		t.Fatal(err)
	}
	if err := sh.Checkpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(regCkpt.Bytes(), ckpt.Bytes()) {
		t.Fatal("Registry.Checkpoint and the engine's Checkpoint differ")
	}
	resumed, err := repro.Compile(build(), repro.UPA, repro.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	if err := resumed.Registry.Restore(&regCkpt); err != nil {
		t.Fatal(err)
	}
	rendered := func(e *repro.Engine) string {
		rows, err := e.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		strs := make([]string, len(rows))
		for i, r := range rows {
			strs[i] = r.String()
		}
		sort.Strings(strs)
		return strings.Join(strs, " ")
	}
	if got, want := rendered(resumed), rendered(sh); got != want || want == "" {
		t.Fatalf("restored answer\n%s\nwant (non-empty)\n%s", got, want)
	}
	// Keyed (group-by) views support sharded point lookups.
	gq := repro.Stream(0, schema, repro.TimeWindow(100)).GroupBy([]string{"src"}, repro.CountAll())
	geng, err := repro.Compile(gq, repro.UPA, repro.WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	defer geng.Close()
	for ts := int64(1); ts <= 20; ts++ {
		if err := geng.Push(0, ts, repro.Int(ts%4), repro.Str("ftp"), repro.Int(ts)); err != nil {
			t.Fatal(err)
		}
	}
	rows, err := geng.Lookup(repro.Int(2))
	if err != nil || len(rows) != 1 || !rows[0].Vals[1].Identical(repro.Int(5)) {
		t.Fatalf("sharded Lookup(2) = %v, %v (want one group with count 5)", rows, err)
	}
}

func TestWithShardsFallback(t *testing.T) {
	schema := linkSchema()
	// Count-based windows cannot shard: eviction order is global.
	q := repro.Stream(0, schema, repro.CountWindow(10)).Select("src").Distinct()
	eng, err := repro.Compile(q, repro.UPA, repro.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if eng.Shards() != 1 {
		t.Fatalf("Shards() = %d, want 1", eng.Shards())
	}
	if !strings.Contains(eng.ShardFallbackReason(), "count-based window") {
		t.Fatalf("reason = %q", eng.ShardFallbackReason())
	}
	// A fallen-back engine is an ordinary sequential engine: it has a view,
	// and it is a one-query registry that takes further registrations.
	if eng.View() == nil {
		t.Fatal("fallback engine has no View")
	}
	if _, err := eng.Registry.Register(repro.Stream(0, schema, repro.CountWindow(10)).Select("src"), repro.UPA); err != nil {
		t.Fatalf("Register on the fallback engine's registry: %v", err)
	}
	if err := eng.Push(0, 1, repro.Int(1), repro.Str("ftp"), repro.Int(5)); err != nil {
		t.Fatal(err)
	}
	if n, err := eng.ResultCount(); err != nil || n != 1 {
		t.Fatalf("ResultCount = %d, %v", n, err)
	}
	if n := eng.View().Len(); n != 1 {
		t.Fatalf("View().Len() = %d, want 1", n)
	}
}
