package operator

import (
	"testing"

	"repro/internal/core"
	"repro/internal/statebuf"
	"repro/internal/tuple"
)

// joinBufKinds enumerates the state structures the strategies assign to join
// inputs; the join must behave identically over all of them.
func joinBufKinds() map[string][2]statebuf.Config {
	fifo := statebuf.Config{Kind: statebuf.KindFIFO}
	list := statebuf.Config{Kind: statebuf.KindList}
	part := statebuf.Config{Kind: statebuf.KindPartitioned, Horizon: 100, Partitions: 5}
	hash := statebuf.Config{Kind: statebuf.KindHash}
	return map[string][2]statebuf.Config{
		"fifo":        {fifo, fifo},
		"list":        {list, list},
		"partitioned": {part, part},
		"hash":        {hash, hash},
		"mixed":       {fifo, hash},
	}
}

func newTestJoin(t *testing.T, bufs [2]statebuf.Config) *Join {
	t.Helper()
	j, err := NewJoin(JoinConfig{
		Left: linkSchema(), Right: linkSchema(),
		LeftCols: []int{0}, RightCols: []int{0},
		LeftBuf: bufs[0], RightBuf: bufs[1],
	})
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func TestJoinMatchesAcrossBufferKinds(t *testing.T) {
	for name, bufs := range joinBufKinds() {
		t.Run(name, func(t *testing.T) {
			j := newTestJoin(t, bufs)
			if j.Class() != core.OpJoin || j.Schema().Len() != 6 {
				t.Error("metadata wrong")
			}
			// Left tuple, no match yet.
			if out := mustProcess(t, j, 0, linkTuple(1, 51, 7, "ftp", 10), 1); len(out) != 0 {
				t.Errorf("unmatched arrival produced %v", out)
			}
			// Right tuple with same key joins.
			out := mustProcess(t, j, 1, linkTuple(2, 52, 7, "telnet", 20), 2)
			if len(out) != 1 {
				t.Fatalf("expected 1 result, got %v", out)
			}
			r := out[0]
			if r.TS != 2 || r.Exp != 51 {
				t.Errorf("result TS/Exp = %d/%d, want 2/51 (min of constituents)", r.TS, r.Exp)
			}
			if len(r.Vals) != 6 || !r.Vals[0].Identical(tuple.Int(7)) || r.Vals[4].S != "telnet" {
				t.Errorf("result vals = %v", r.Vals)
			}
			// Non-matching key produces nothing.
			if out := mustProcess(t, j, 1, linkTuple(3, 53, 8, "ftp", 5), 3); len(out) != 0 {
				t.Errorf("key mismatch joined: %v", out)
			}
			if j.StateSize() != 3 {
				t.Errorf("StateSize = %d", j.StateSize())
			}
		})
	}
}

func TestJoinSkipsExpiredDuringProbe(t *testing.T) {
	for name, bufs := range joinBufKinds() {
		t.Run(name, func(t *testing.T) {
			j := newTestJoin(t, bufs)
			mustProcess(t, j, 0, linkTuple(1, 51, 7, "ftp", 10), 1)
			// At now=51 the left tuple has expired; no join result even
			// though it may still sit in a lazily-maintained buffer.
			if out := mustProcess(t, j, 1, linkTuple(51, 101, 7, "ftp", 20), 51); len(out) != 0 {
				t.Errorf("%s: expired tuple joined: %v", name, out)
			}
		})
	}
}

func TestJoinLazyExpirationViaAdvance(t *testing.T) {
	j := newTestJoin(t, [2]statebuf.Config{{Kind: statebuf.KindFIFO}, {Kind: statebuf.KindFIFO}})
	mustProcess(t, j, 0, linkTuple(1, 51, 7, "ftp", 10), 1)
	mustProcess(t, j, 1, linkTuple(2, 52, 9, "ftp", 10), 2)
	if j.StateSize() != 2 {
		t.Fatalf("StateSize = %d", j.StateSize())
	}
	if out := mustAdvance(t, j, 52); len(out) != 0 {
		t.Errorf("join Advance must not emit: %v", out)
	}
	if j.StateSize() != 0 {
		t.Errorf("state not trimmed: %d", j.StateSize())
	}
	// Clock never regresses: advancing to an earlier time is a no-op.
	mustAdvance(t, j, 10)
}

func TestJoinNegativeRetractsResults(t *testing.T) {
	for name, bufs := range joinBufKinds() {
		t.Run(name, func(t *testing.T) {
			j := newTestJoin(t, bufs)
			l := linkTuple(1, 51, 7, "ftp", 10)
			mustProcess(t, j, 0, l, 1)
			mustProcess(t, j, 1, linkTuple(2, 52, 7, "telnet", 20), 2)
			mustProcess(t, j, 1, linkTuple(3, 53, 7, "smtp", 30), 3)
			// Retract the left tuple: both join results must be retracted.
			out := mustProcess(t, j, 0, l.Negative(10), 10)
			if len(out) != 2 {
				t.Fatalf("expected 2 retractions, got %v", out)
			}
			for _, r := range out {
				if !r.Neg || !r.Vals[0].Identical(tuple.Int(7)) {
					t.Errorf("bad retraction %v", r)
				}
			}
			// State shrank; re-retracting finds nothing.
			if out := mustProcess(t, j, 0, l.Negative(11), 11); len(out) != 0 {
				t.Errorf("double retraction produced %v", out)
			}
		})
	}
}

func TestJoinResidualPredicate(t *testing.T) {
	j, err := NewJoin(JoinConfig{
		Left: linkSchema(), Right: linkSchema(),
		LeftCols: []int{0}, RightCols: []int{0},
		// bytes_left < bytes_right over the concatenated schema.
		Residual: ColCol{Left: 2, Right: 5, Op: LT},
		LeftBuf:  statebuf.Config{Kind: statebuf.KindFIFO},
		RightBuf: statebuf.Config{Kind: statebuf.KindFIFO},
	})
	if err != nil {
		t.Fatal(err)
	}
	mustProcess(t, j, 0, linkTuple(1, 51, 7, "ftp", 10), 1)
	if out := mustProcess(t, j, 1, linkTuple(2, 52, 7, "ftp", 5), 2); len(out) != 0 {
		t.Errorf("residual should drop: %v", out)
	}
	if out := mustProcess(t, j, 1, linkTuple(3, 53, 7, "ftp", 50), 3); len(out) != 1 {
		t.Errorf("residual should pass: %v", out)
	}
}

func TestJoinMultiColumnKeys(t *testing.T) {
	j, err := NewJoin(JoinConfig{
		Left: linkSchema(), Right: linkSchema(),
		LeftCols: []int{0, 1}, RightCols: []int{0, 1},
		LeftBuf:  statebuf.Config{Kind: statebuf.KindHash},
		RightBuf: statebuf.Config{Kind: statebuf.KindHash},
	})
	if err != nil {
		t.Fatal(err)
	}
	mustProcess(t, j, 0, linkTuple(1, 51, 7, "ftp", 10), 1)
	if out := mustProcess(t, j, 1, linkTuple(2, 52, 7, "telnet", 20), 2); len(out) != 0 {
		t.Errorf("proto mismatch joined: %v", out)
	}
	if out := mustProcess(t, j, 1, linkTuple(3, 53, 7, "ftp", 20), 3); len(out) != 1 {
		t.Errorf("full key match missed: %v", out)
	}
}

func TestJoinConfigValidation(t *testing.T) {
	base := JoinConfig{Left: linkSchema(), Right: linkSchema()}
	if _, err := NewJoin(base); err == nil {
		t.Error("empty keys accepted")
	}
	bad := base
	bad.LeftCols, bad.RightCols = []int{0}, []int{0, 1}
	if _, err := NewJoin(bad); err == nil {
		t.Error("mismatched key arity accepted")
	}
	bad = base
	bad.LeftCols, bad.RightCols = []int{9}, []int{0}
	if _, err := NewJoin(bad); err == nil {
		t.Error("left col out of range accepted")
	}
	bad = base
	bad.LeftCols, bad.RightCols = []int{0}, []int{9}
	if _, err := NewJoin(bad); err == nil {
		t.Error("right col out of range accepted")
	}
	ok := base
	ok.LeftCols, ok.RightCols = []int{0}, []int{0}
	j, err := NewJoin(ok)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := processTuple(j, 2, linkTuple(1, 51, 1, "x", 1), 1); err == nil {
		t.Error("bad side accepted")
	}
}

func TestJoinTouchedGrows(t *testing.T) {
	j := newTestJoin(t, [2]statebuf.Config{{Kind: statebuf.KindList}, {Kind: statebuf.KindList}})
	mustProcess(t, j, 0, linkTuple(1, 51, 7, "ftp", 10), 1)
	before := j.Touched()
	mustProcess(t, j, 1, linkTuple(2, 52, 7, "ftp", 10), 2)
	if j.Touched() <= before {
		t.Error("Touched must grow with probes")
	}
}
