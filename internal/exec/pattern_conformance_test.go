package exec

// Pattern-conformance monitor tests. The unit half injects synthetic
// violations of each update-pattern class directly into a conformance cell
// — retractions on a chronicle (MONO) edge, out-of-insertion-order
// expirations on a FIFO (WKS) edge, premature expirations on an
// exp-timestamp (WK) edge — and checks each trips exactly the expected
// violation kind. The acceptance half runs all five paper query shapes
// under every strategy, sequential and sharded, and requires the monitor
// to report zero violations (the executor's emissions must conform to the
// classes Section 3's rules declare) while the delta-latency histograms
// account for every emitted delta.

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/tuple"
)

// newConfCell builds a stand-alone conformance cell like opCounters does,
// backed by a private registry.
func newConfCell(declared core.Pattern, replacement bool) *opStats {
	reg := obs.NewRegistry()
	st := &opStats{}
	st.conf = conformance{
		declared:       declared,
		maxBoundaryExp: math.MinInt64,
		replacement:    replacement,
		observedG:      reg.Gauge(MetricOpObservedPattern, "observed pattern", nil),
	}
	for i, kind := range violationKinds {
		st.conf.viol[i] = reg.Counter(MetricPatternViolations, "violations", obs.Labels{"kind": kind})
	}
	return st
}

func retraction(ts, exp int64) tuple.Tuple {
	return tuple.Tuple{TS: ts, Exp: exp, Neg: true}
}

func TestConformanceChronicleViolation(t *testing.T) {
	// Any expiration on a monotonic (chronicle) edge is a violation.
	st := newConfCell(core.Monotonic, false)
	st.observeRetraction(retraction(10, 10), 10) // orderly boundary
	byKind, total := st.violations()
	if total != 1 || byKind[violExpiration] != 1 {
		t.Errorf("violations = %v (total %d), want one %q", byKind, total, ViolationExpiration)
	}
	if st.conf.observed != core.Weakest {
		t.Errorf("observed = %v, want %v", st.conf.observed, core.Weakest)
	}
}

func TestConformanceFIFOViolation(t *testing.T) {
	// Boundary expirations out of insertion order violate a WKS edge.
	st := newConfCell(core.Weakest, false)
	st.observeRetraction(retraction(20, 20), 20) // orderly: maxBoundaryExp = 20
	st.observeRetraction(retraction(25, 15), 25) // exp 15 after exp 20: out of order
	byKind, total := st.violations()
	if total != 1 || byKind[violOutOfOrder] != 1 {
		t.Errorf("violations = %v (total %d), want one %q", byKind, total, ViolationOutOfOrder)
	}
	if st.conf.observed != core.Weak {
		t.Errorf("observed = %v, want %v", st.conf.observed, core.Weak)
	}
}

func TestConformancePrematureViolation(t *testing.T) {
	// Retracting a tuple before its declared expiry violates a WK edge.
	st := newConfCell(core.Weak, false)
	st.observeRetraction(retraction(10, 50), 10) // exp 50 retracted at clock 10
	byKind, total := st.violations()
	if total != 1 || byKind[violPremature] != 1 {
		t.Errorf("violations = %v (total %d), want one %q", byKind, total, ViolationPremature)
	}
	if st.conf.observed != core.Strict {
		t.Errorf("observed = %v, want %v", st.conf.observed, core.Strict)
	}
}

func TestConformanceNeverExpiresRetraction(t *testing.T) {
	// A never-expiring row retracted on a non-replacement WK edge is an
	// unpredictable deletion: STR evidence, counted as premature.
	st := newConfCell(core.Weak, false)
	st.observeRetraction(retraction(10, tuple.NeverExpires), 10)
	byKind, total := st.violations()
	if total != 1 || byKind[violPremature] != 1 {
		t.Errorf("violations = %v (total %d), want one %q", byKind, total, ViolationPremature)
	}
}

func TestConformanceGroupByReplacementConforms(t *testing.T) {
	// Group-by retracts its never-expiring aggregate rows on replacement;
	// Rule 4 classifies that as WK, so a WK declaration absorbs it.
	st := newConfCell(core.Weak, true)
	st.observeRetraction(retraction(10, tuple.NeverExpires), 10)
	if _, total := st.violations(); total != 0 {
		t.Errorf("replacement retraction counted as violation (total %d)", total)
	}
	if st.conf.observed != core.Weak {
		t.Errorf("observed = %v, want %v", st.conf.observed, core.Weak)
	}
}

func TestConformanceStrictAbsorbsAll(t *testing.T) {
	// A STR declaration can never be exceeded; observed still tracks what
	// actually happened (here: only orderly boundary expirations → WKS,
	// exposing an overcautious declaration).
	st := newConfCell(core.Strict, false)
	st.observeRetraction(retraction(10, 10), 10)
	st.observeRetraction(retraction(12, 12), 12)
	if _, total := st.violations(); total != 0 {
		t.Errorf("STR edge reported violations (total %d)", total)
	}
	if st.conf.observed != core.Weakest {
		t.Errorf("observed = %v, want %v", st.conf.observed, core.Weakest)
	}
}

func TestConformanceOrderlyBoundaryConforms(t *testing.T) {
	st := newConfCell(core.Weakest, false)
	for ts := int64(10); ts < 20; ts++ {
		st.observeRetraction(retraction(ts, ts), ts)
	}
	if _, total := st.violations(); total != 0 {
		t.Errorf("orderly FIFO expirations reported violations (total %d)", total)
	}
	if st.conf.observed != core.Weakest {
		t.Errorf("observed = %v, want %v", st.conf.observed, core.Weakest)
	}
}

// buildInstrumented mirrors buildExecutor with a metrics registry attached,
// so delta latency is recorded and the conformance gauges are live.
func buildInstrumented(t *testing.T, q ckptQuery, strat plan.Strategy, shards int) *Engine {
	t.Helper()
	cfg := Config{LazyInterval: 7, EagerInterval: 1, Metrics: obs.NewRegistry()}
	return openQuery(t, q, strat, plan.Options{}, cfg, shards)
}

// TestPaperQueriesConformant is the monitor's acceptance gate: every paper
// query shape × strategy × shard count runs violation-free, and the
// latency histograms account for exactly the deltas the run emitted.
func TestPaperQueriesConformant(t *testing.T) {
	for _, q := range ckptQueries() {
		for _, strat := range []plan.Strategy{plan.NT, plan.Direct, plan.UPA} {
			for _, shards := range []int{1, 4} {
				t.Run(q.name+"/"+strat.String()+"/"+shardName(shards), func(t *testing.T) {
					ex := buildInstrumented(t, q, strat, shards)
					feed(t, ex, ckptTrace(q.streams))
					if err := ex.Sync(); err != nil {
						t.Fatalf("Sync: %v", err)
					}
					viol := ex.Violations()
					pos, neg := ex.DeltaLatency()
					if viol != 0 {
						t.Errorf("conformance violations = %d, want 0", viol)
					}
					st := ex.Stats()
					if pos.Count != st.Emitted {
						t.Errorf("latency pos count = %d, emitted = %d", pos.Count, st.Emitted)
					}
					if neg.Count != st.Retracted {
						t.Errorf("latency neg count = %d, retracted = %d", neg.Count, st.Retracted)
					}
					if st.Emitted > 0 && pos.Max <= 0 {
						t.Errorf("emitted %d deltas but max latency is %d", st.Emitted, pos.Max)
					}
				})
			}
		}
	}
}

func shardName(n int) string {
	if n == 1 {
		return "seq"
	}
	return "sharded"
}
