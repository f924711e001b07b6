package operator

import (
	"testing"

	"repro/internal/core"
	"repro/internal/tuple"
)

func linkSchema() *tuple.Schema {
	return tuple.MustSchema(
		tuple.Column{Name: "src", Kind: tuple.KindInt},
		tuple.Column{Name: "proto", Kind: tuple.KindString},
		tuple.Column{Name: "bytes", Kind: tuple.KindInt},
	)
}

func linkTuple(ts, exp int64, src int64, proto string, bytes int64) tuple.Tuple {
	return tuple.Tuple{TS: ts, Exp: exp, Vals: []tuple.Value{
		tuple.Int(src), tuple.String_(proto), tuple.Int(bytes),
	}}
}

// processTuple feeds one tuple as a run of one and returns what it emitted —
// the unit tests' single-event view of ProcessBatch.
func processTuple(op Operator, side int, tp tuple.Tuple, now int64) ([]tuple.Tuple, error) {
	var out Emit
	err := op.ProcessBatch(side, []tuple.Tuple{tp}, now, &out)
	return out.Tuples(), err
}

func mustProcess(t *testing.T, op Operator, side int, tp tuple.Tuple, now int64) []tuple.Tuple {
	t.Helper()
	out, err := processTuple(op, side, tp, now)
	if err != nil {
		t.Fatalf("ProcessBatch: %v", err)
	}
	return out
}

func mustAdvance(t *testing.T, op Operator, now int64) []tuple.Tuple {
	t.Helper()
	out, err := op.Advance(now)
	if err != nil {
		t.Fatalf("Advance: %v", err)
	}
	return out
}

func TestSelectFiltersBothSigns(t *testing.T) {
	s := NewSelect(linkSchema(), ColConst{Col: 1, Op: EQ, Val: tuple.String_("ftp")})
	if s.Class() != core.OpSelect || s.Schema().Len() != 3 || s.StateSize() != 0 || s.Touched() != 0 {
		t.Error("metadata wrong")
	}
	ftp := linkTuple(1, 51, 7, "ftp", 100)
	web := linkTuple(2, 52, 7, "http", 100)
	if out := mustProcess(t, s, 0, ftp, 1); len(out) != 1 {
		t.Errorf("ftp should pass: %v", out)
	}
	if out := mustProcess(t, s, 0, web, 2); len(out) != 0 {
		t.Errorf("http should be dropped: %v", out)
	}
	neg := ftp.Negative(51)
	if out := mustProcess(t, s, 0, neg, 51); len(out) != 1 || !out[0].Neg {
		t.Errorf("negative of passing tuple must pass: %v", out)
	}
	negWeb := web.Negative(52)
	if out := mustProcess(t, s, 0, negWeb, 52); len(out) != 0 {
		t.Errorf("negative of dropped tuple must be dropped: %v", out)
	}
	if _, err := processTuple(s, 1, ftp, 1); err == nil {
		t.Error("bad side accepted")
	}
	if out := mustAdvance(t, s, 100); out != nil {
		t.Error("stateless Advance must be empty")
	}
	if s.Predicate() == nil {
		t.Error("Predicate accessor")
	}
}

func TestProjectKeepsSignAndTimestamps(t *testing.T) {
	p, err := NewProject(linkSchema(), []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if p.Class() != core.OpProject || p.Schema().Len() != 1 || p.Schema().Col(0).Name != "src" {
		t.Error("metadata wrong")
	}
	in := linkTuple(3, 53, 9, "ftp", 10)
	out := mustProcess(t, p, 0, in, 3)
	if len(out) != 1 || len(out[0].Vals) != 1 || out[0].Vals[0] != tuple.Int(9) {
		t.Fatalf("projection wrong: %v", out)
	}
	if out[0].TS != 3 || out[0].Exp != 53 {
		t.Error("timestamps must be preserved")
	}
	neg := in.Negative(53)
	nout := mustProcess(t, p, 0, neg, 53)
	if len(nout) != 1 || !nout[0].Neg || nout[0].Vals[0] != tuple.Int(9) {
		t.Errorf("negative projection wrong: %v", nout)
	}
	if _, err := processTuple(p, 1, in, 3); err == nil {
		t.Error("bad side accepted")
	}
	if _, err := NewProject(linkSchema(), []int{99}); err == nil {
		t.Error("bad column accepted")
	}
	if len(p.Cols()) != 1 {
		t.Error("Cols accessor")
	}
}

func TestUnionForwardsAndChecksOrder(t *testing.T) {
	u, err := NewUnion(linkSchema(), linkSchema())
	if err != nil {
		t.Fatal(err)
	}
	if u.Class() != core.OpUnion || u.StateSize() != 0 {
		t.Error("metadata wrong")
	}
	a := linkTuple(1, 51, 1, "ftp", 1)
	b := linkTuple(2, 52, 2, "ftp", 1)
	if out := mustProcess(t, u, 0, a, 1); len(out) != 1 {
		t.Error("forward side 0")
	}
	if out := mustProcess(t, u, 1, b, 2); len(out) != 1 {
		t.Error("forward side 1")
	}
	// Out-of-order positive arrival is an error.
	if _, err := processTuple(u, 0, linkTuple(1, 51, 3, "ftp", 1), 2); err == nil {
		t.Error("timestamp regression accepted")
	}
	// Negative tuples may arrive at any time (retractions are late by nature).
	if out := mustProcess(t, u, 0, a.Negative(51), 51); len(out) != 1 || !out[0].Neg {
		t.Error("negative forwarding")
	}
	if _, err := processTuple(u, 2, a, 60); err == nil {
		t.Error("bad side accepted")
	}
	// Layout mismatch rejected.
	other := tuple.MustSchema(tuple.Column{Name: "x", Kind: tuple.KindString})
	if _, err := NewUnion(linkSchema(), other); err == nil {
		t.Error("layout mismatch accepted")
	}
	if out := mustAdvance(t, u, 100); out != nil {
		t.Error("stateless Advance must be empty")
	}
}
