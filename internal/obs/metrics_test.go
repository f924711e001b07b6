package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatalf("nil counter value = %d", c.Value())
	}
	var g *Gauge
	g.Set(7)
	g.Add(1)
	g.SetMax(9)
	if g.Value() != 0 {
		t.Fatalf("nil gauge value = %d", g.Value())
	}
	var r *Registry
	if r.Counter("x", "", nil) != nil || r.Gauge("x", "", nil) != nil ||
		r.LogHistogram("x", "", nil) != nil {
		t.Fatal("nil registry returned live instruments")
	}
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	if s := r.Snapshot(); len(s.Counters) != 0 {
		t.Fatal("nil registry snapshot non-empty")
	}
}

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("upa_test_total", "help", nil)
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters are monotonic
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if again := r.Counter("upa_test_total", "help", nil); again != c {
		t.Fatal("re-registration returned a different counter")
	}
	g := r.Gauge("upa_test_gauge", "", nil)
	g.Set(10)
	g.SetMax(3) // lower: ignored
	g.SetMax(12)
	g.Add(-2)
	if g.Value() != 10 {
		t.Fatalf("gauge = %d, want 10", g.Value())
	}
}

func TestLabeledSeriesAreDistinct(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("upa_op_emitted_total", "", Labels{"op": "join", "node": "1"})
	b := r.Counter("upa_op_emitted_total", "", Labels{"op": "distinct", "node": "2"})
	if a == b {
		t.Fatal("different label sets shared a counter")
	}
	a.Add(2)
	b.Inc()
	snap := r.Snapshot()
	if snap.Counters[`upa_op_emitted_total{node="1",op="join"}`] != 2 {
		t.Fatalf("snapshot = %v", snap.Counters)
	}
	if snap.Counters[`upa_op_emitted_total{node="2",op="distinct"}`] != 1 {
		t.Fatalf("snapshot = %v", snap.Counters)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("upa_arrivals_total", "base-stream tuples pushed", nil).Add(42)
	r.Gauge("upa_state_tuples", "stored tuples", nil).Set(17)
	r.Counter("upa_op_emitted_total", "per-operator emissions", Labels{"op": "join"}).Add(3)
	push := r.LogHistogram("upa_push_nanos", "push latency", nil)
	push.Observe(150)
	push.Observe(150)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP upa_arrivals_total base-stream tuples pushed",
		"# TYPE upa_arrivals_total counter",
		"upa_arrivals_total 42",
		"# TYPE upa_state_tuples gauge",
		"upa_state_tuples 17",
		`upa_op_emitted_total{op="join"} 3`,
		"# TYPE upa_push_nanos summary",
		`upa_push_nanos{quantile="0.5"} 150`,
		`upa_push_nanos{quantile="0.99"} 150`,
		"upa_push_nanos_max 150",
		"upa_push_nanos_sum 300",
		"upa_push_nanos_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestLabelValueEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("upa_test_total", "", Labels{"pred": "proto=\"ftp\"\nand src\\dst"}).Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	// Exactly backslash, double quote, and newline must be escaped; the raw
	// newline must not survive inside the quoted value.
	want := `upa_test_total{pred="proto=\"ftp\"\nand src\\dst"} 1`
	if !strings.Contains(b.String(), want) {
		t.Fatalf("prometheus output missing %q:\n%s", want, b.String())
	}
	for _, fn := range []string{
		`upa_test_total{pred="proto="ftp""`, // unescaped quote
		"pred=\"proto=\\\"ftp\\\"\n",        // raw newline in value
	} {
		if strings.Contains(b.String(), fn) {
			t.Fatalf("prometheus output contains unescaped form %q:\n%s", fn, b.String())
		}
	}
	if got := escapeLabelValue("plain"); got != "plain" {
		t.Fatalf("escapeLabelValue(plain) = %q", got)
	}
}

func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("upa_shared_total", "", nil).Inc()
				r.Gauge("upa_shared_gauge", "", nil).SetMax(int64(j))
				r.LogHistogram("upa_shared_hist", "", nil).Observe(int64(j % 20))
			}
		}()
	}
	wg.Wait()
	if v := r.Counter("upa_shared_total", "", nil).Value(); v != 8000 {
		t.Fatalf("counter = %d, want 8000", v)
	}
	if h := r.LogHistogram("upa_shared_hist", "", nil); h.Count() != 8000 {
		t.Fatalf("histogram count = %d, want 8000", h.Count())
	}
}
