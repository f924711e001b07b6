// Package obs is the engine's observability layer: a dependency-free
// metrics registry (atomic counters, gauges, and log-bucketed histograms),
// an in-process history sampler with health rules (Go functions) over it, and
// exposition in Prometheus text format and JSON — the instrumentation
// backbone that turns the paper's end-of-run aggregates (tuple touches,
// retraction volume, stored state) into live, continuously observable
// series.
//
// Everything is nil-safe: methods on a nil *Counter, *Gauge, *LogHistogram,
// or *Registry are no-ops, so instrumented code pays one nil check (no
// atomics, no allocation) when observability is disabled.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n (n < 0 is ignored; counters never
// regress). Safe on nil.
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. Safe on nil.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Value returns the current count. Safe on nil (returns 0).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value (state sizes, clocks, high-water
// marks).
type Gauge struct{ v atomic.Int64 }

// Set stores v. Safe on nil.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by delta. Safe on nil.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// SetMax raises the gauge to v if v is larger (high-water marks). Safe on
// nil.
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value. Safe on nil (returns 0).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Labels are constant metric dimensions, e.g. {"op": "join", "node": "1"}.
type Labels map[string]string

// render serializes labels deterministically as {a="x",b="y"} (empty for
// no labels), which doubles as the registry key suffix.
func (l Labels) render() string {
	if len(l) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l[k]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabelValue applies the Prometheus text-format label-value escaping:
// exactly backslash, double quote, and newline are escaped (the exposition
// format defines no other escape sequences, so Go-style \t or \xNN escapes
// would make the output unparseable).
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	b.Grow(len(v) + 2)
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(v[i])
		}
	}
	return b.String()
}

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindLogHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindLogHistogram:
		// Log-bucketed histograms expose pre-computed quantiles, which is
		// the Prometheus summary shape.
		return "summary"
	default:
		return "untyped"
	}
}

// metric is one registered series (a name + one label set).
type metric struct {
	name   string
	labels string // rendered label suffix, "" when unlabeled
	help   string
	kind   metricKind
	c      *Counter
	g      *Gauge
	lh     *LogHistogram
}

// Registry holds named metrics. Registration is idempotent: asking for the
// same (name, labels) twice returns the same instrument, so engines and
// their exposition endpoint can share a registry freely. A nil *Registry
// is a valid "disabled" registry: every constructor returns nil
// instruments whose methods are no-ops.
type Registry struct {
	mu      sync.Mutex
	metrics []*metric
	index   map[string]*metric
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[string]*metric)}
}

func (r *Registry) lookup(name string, labels Labels, kind metricKind, help string) *metric {
	key := name + labels.render()
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.index[key]; ok {
		return m
	}
	m := &metric{name: name, labels: labels.render(), help: help, kind: kind}
	switch kind {
	case kindCounter:
		m.c = &Counter{}
	case kindGauge:
		m.g = &Gauge{}
	case kindLogHistogram:
		m.lh = NewLogHistogram()
	}
	r.metrics = append(r.metrics, m)
	r.index[key] = m
	return m
}

// Counter registers (or retrieves) a counter. Safe on nil (returns nil).
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, labels, kindCounter, help).c
}

// Gauge registers (or retrieves) a gauge. Safe on nil (returns nil).
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, labels, kindGauge, help).g
}

// LogHistogram registers (or retrieves) a lock-free log-bucketed histogram
// with quantile exposition (Prometheus summary shape). Safe on nil
// (returns nil).
func (r *Registry) LogHistogram(name, help string, labels Labels) *LogHistogram {
	if r == nil {
		return nil
	}
	return r.lookup(name, labels, kindLogHistogram, help).lh
}

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format (version 0.0.4). Safe on nil (writes nothing).
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	metrics := append([]*metric(nil), r.metrics...)
	r.mu.Unlock()
	seen := map[string]bool{}
	for _, m := range metrics {
		if !seen[m.name] {
			seen[m.name] = true
			if m.help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", m.name, m.help); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", m.name, m.kind); err != nil {
				return err
			}
		}
		var err error
		switch m.kind {
		case kindCounter:
			_, err = fmt.Fprintf(w, "%s%s %d\n", m.name, m.labels, m.c.Value())
		case kindGauge:
			_, err = fmt.Fprintf(w, "%s%s %d\n", m.name, m.labels, m.g.Value())
		case kindLogHistogram:
			err = writePromLogHistogram(w, m)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func writePromLogHistogram(w io.Writer, m *metric) error {
	s := m.lh.Snapshot()
	for _, q := range [...]struct {
		label string
		v     int64
	}{{`quantile="0.5"`, s.P50}, {`quantile="0.95"`, s.P95}, {`quantile="0.99"`, s.P99}} {
		if _, err := fmt.Fprintf(w, "%s%s %d\n", m.name, mergeLabel(m.labels, q.label), q.v); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_max%s %d\n", m.name, m.labels, s.Max); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %d\n", m.name, m.labels, s.Sum); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", m.name, m.labels, s.Count)
	return err
}

// mergeLabel splices an extra label pair into an already-rendered label
// set.
func mergeLabel(rendered, extra string) string {
	if rendered == "" {
		return "{" + extra + "}"
	}
	return rendered[:len(rendered)-1] + "," + extra + "}"
}

// Snapshot is a point-in-time copy of a whole registry, keyed by
// name{labels}.
type Snapshot struct {
	Counters      map[string]int64                `json:"counters,omitempty"`
	Gauges        map[string]int64                `json:"gauges,omitempty"`
	LogHistograms map[string]LogHistogramSnapshot `json:"log_histograms,omitempty"`
}

// Snapshot copies every metric's current value. Safe on nil (returns an
// empty snapshot).
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:      map[string]int64{},
		Gauges:        map[string]int64{},
		LogHistograms: map[string]LogHistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	metrics := append([]*metric(nil), r.metrics...)
	r.mu.Unlock()
	for _, m := range metrics {
		key := m.name + m.labels
		switch m.kind {
		case kindCounter:
			s.Counters[key] = m.c.Value()
		case kindGauge:
			s.Gauges[key] = m.g.Value()
		case kindLogHistogram:
			s.LogHistograms[key] = m.lh.Snapshot()
		}
	}
	return s
}

// WriteJSON renders the snapshot as indented JSON. Safe on nil.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
