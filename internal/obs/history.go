package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// History periodically snapshots a Registry into fixed-size per-series
// ring buffers, giving the process an in-memory answer to "what did this
// series do over the last N ticks" without an external TSDB.
//
// Storage per sample tick:
//   - counters store the tick-over-tick *delta*, so rates and windowed sums
//     come free (the cumulative value stays available as the running
//     baseline);
//   - gauges store the sampled value;
//   - histograms store a bucket-wise delta snapshot, so an exact windowed
//     distribution — and therefore exact windowed p50/p95/p99 — is a Merge
//     of the window's deltas (quantiles cannot be averaged; bucket counts
//     can).
//
// Sampling is lock-light: instruments are atomics, so a tick reads each
// series once without stopping recorders; History's own mutex only orders
// ticks against readers of the rings. All methods are safe on nil.
type History struct {
	reg *Registry
	cfg HistoryConfig

	mu    sync.Mutex
	rings map[string]*seriesRing
	order []*seriesRing // registration order, for stable listings
	times []sampleStamp // ring of per-tick timestamps
	count int64         // total ticks taken since construction

	before []func() // run before reading the registry (refresh derived gauges)
	after  []func() // run after the tick is stored (health evaluation)

	startMu sync.Mutex
	stop    chan struct{}
	done    chan struct{}
}

// HistoryConfig sizes a History.
type HistoryConfig struct {
	// Capacity is the number of sample ticks retained per series
	// (default 600 — ten minutes at the default interval).
	Capacity int
	// Interval is Start's sampling cadence (default 1s).
	Interval time.Duration
}

const (
	defaultHistoryCapacity = 600
	defaultHistoryInterval = time.Second
)

type sampleStamp struct {
	wall int64 // time.Now().UnixNano()
	mono int64 // Nanotime()
}

// seriesRing is one series' retained window. vals and hists are rings
// indexed by tick%capacity; slots before the series' first tick are zero.
type seriesRing struct {
	name   string
	labels string // rendered label suffix, "" when unlabeled
	kind   metricKind
	m      *metric

	first int64   // global tick index of this series' first sample
	vals  []int64 // counter deltas, histogram count deltas, gauge values
	hists []LogHistogramSnapshot
	prev  int64                // last cumulative count (counters, histograms)
	prevH LogHistogramSnapshot // last cumulative snapshot (histograms)
}

// NewHistory builds a sampler over reg. The first tick of each series is a
// baseline (delta 0), so attaching a History to a long-running registry
// does not report the entire cumulative history as one spike.
func NewHistory(reg *Registry, cfg HistoryConfig) *History {
	if cfg.Capacity <= 0 {
		cfg.Capacity = defaultHistoryCapacity
	}
	if cfg.Interval <= 0 {
		cfg.Interval = defaultHistoryInterval
	}
	return &History{
		reg:   reg,
		cfg:   cfg,
		rings: make(map[string]*seriesRing),
		times: make([]sampleStamp, cfg.Capacity),
	}
}

// Registry returns the registry this history samples. Safe on nil.
func (h *History) Registry() *Registry {
	if h == nil {
		return nil
	}
	return h.reg
}

// Interval returns the configured sampling cadence. Safe on nil.
func (h *History) Interval() time.Duration {
	if h == nil {
		return 0
	}
	return h.cfg.Interval
}

// BeforeSample registers fn to run at the start of every tick, before the
// registry is read — the hook point for refreshing derived gauges
// (process metrics, state sizes). Safe on nil.
func (h *History) BeforeSample(fn func()) {
	if h == nil || fn == nil {
		return
	}
	h.mu.Lock()
	h.before = append(h.before, fn)
	h.mu.Unlock()
}

// AfterSample registers fn to run after every tick is stored — the hook
// point for rule evaluation over the fresh window. Safe on nil.
func (h *History) AfterSample(fn func()) {
	if h == nil || fn == nil {
		return
	}
	h.mu.Lock()
	h.after = append(h.after, fn)
	h.mu.Unlock()
}

// Sample takes one tick now. It is the manual alternative to Start for
// tests and CLIs that want a deterministic final tick. Safe on nil.
func (h *History) Sample() {
	if h == nil || h.reg == nil {
		return
	}
	h.sampleAt(time.Now().UnixNano(), Nanotime())
}

func (h *History) sampleAt(wall, mono int64) {
	h.mu.Lock()
	before := h.before
	after := h.after
	h.mu.Unlock()
	for _, fn := range before {
		fn()
	}

	h.reg.mu.Lock()
	metrics := append([]*metric(nil), h.reg.metrics...)
	h.reg.mu.Unlock()

	h.mu.Lock()
	slot := int(h.count % int64(h.cfg.Capacity))
	h.times[slot] = sampleStamp{wall: wall, mono: mono}
	for _, m := range metrics {
		key := m.name + m.labels
		r, ok := h.rings[key]
		if !ok {
			r = &seriesRing{
				name:   m.name,
				labels: m.labels,
				kind:   m.kind,
				m:      m,
				first:  h.count,
				vals:   make([]int64, h.cfg.Capacity),
			}
			if m.kind == kindLogHistogram {
				r.hists = make([]LogHistogramSnapshot, h.cfg.Capacity)
			}
			h.rings[key] = r
			h.order = append(h.order, r)
			// Baseline tick: record delta 0 so a late-attached sampler does
			// not report the whole cumulative history as one spike.
			switch m.kind {
			case kindCounter:
				r.prev = m.c.Value()
			case kindLogHistogram:
				r.prevH = m.lh.Snapshot()
				r.prev = r.prevH.Count
			}
		}
		switch m.kind {
		case kindCounter:
			cur := m.c.Value()
			r.vals[slot] = cur - r.prev
			r.prev = cur
		case kindGauge:
			r.vals[slot] = m.g.Value()
		case kindLogHistogram:
			cur := m.lh.Snapshot()
			d := diffLogSnapshots(cur, r.prevH)
			r.hists[slot] = d
			r.vals[slot] = d.Count
			r.prevH = cur
			r.prev = cur.Count
		}
	}
	h.count++
	h.mu.Unlock()

	for _, fn := range after {
		fn()
	}
}

// diffLogSnapshots returns the distribution observed between prev and cur
// (bucket-wise subtraction). Max is inherited from cur — an upper bound
// for the interval, exact whenever the interval contains the running max.
func diffLogSnapshots(cur, prev LogHistogramSnapshot) LogHistogramSnapshot {
	d := LogHistogramSnapshot{
		Count: cur.Count - prev.Count,
		Sum:   cur.Sum - prev.Sum,
	}
	if d.Count <= 0 {
		d.Count = 0
		d.Sum = 0
		return d
	}
	d.Max = cur.Max
	var counts [logBuckets]int64
	for i, c := range cur.Buckets {
		if i >= 0 && i < logBuckets {
			counts[i] = c
		}
	}
	for i, c := range prev.Buckets {
		if i >= 0 && i < logBuckets {
			counts[i] -= c
		}
	}
	d.Buckets = make(map[int]int64)
	total := int64(0)
	for i, c := range counts {
		if c > 0 {
			d.Buckets[i] = c
			total += c
		}
	}
	d.P50 = quantileFromBuckets(counts[:], total, 0.50)
	d.P95 = quantileFromBuckets(counts[:], total, 0.95)
	d.P99 = quantileFromBuckets(counts[:], total, 0.99)
	for _, p := range []*int64{&d.P50, &d.P95, &d.P99} {
		if *p > d.Max {
			*p = d.Max
		}
	}
	return d
}

// Start launches the sampling goroutine at the configured interval.
// Idempotent; Stop shuts it down. Safe on nil.
func (h *History) Start() {
	if h == nil || h.reg == nil {
		return
	}
	h.startMu.Lock()
	defer h.startMu.Unlock()
	if h.stop != nil {
		return
	}
	h.stop = make(chan struct{})
	h.done = make(chan struct{})
	go func(stop, done chan struct{}) {
		defer close(done)
		t := time.NewTicker(h.cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				h.Sample()
			}
		}
	}(h.stop, h.done)
}

// Stop halts the sampling goroutine and waits for it to exit. Idempotent;
// manual Sample calls remain valid afterwards. Safe on nil.
func (h *History) Stop() {
	if h == nil {
		return
	}
	h.startMu.Lock()
	defer h.startMu.Unlock()
	if h.stop == nil {
		return
	}
	close(h.stop)
	<-h.done
	h.stop = nil
	h.done = nil
}

// Samples returns the total number of ticks taken. Safe on nil.
func (h *History) Samples() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// retainedLocked returns how many ticks are currently held in the rings.
func (h *History) retainedLocked() int {
	if h.count < int64(h.cfg.Capacity) {
		return int(h.count)
	}
	return h.cfg.Capacity
}

// SeriesKey identifies one retained series.
type SeriesKey struct {
	Key  string `json:"key"`  // name + rendered labels
	Kind string `json:"kind"` // counter | gauge | summary
}

// Series lists every retained series in registration order. Safe on nil.
func (h *History) Series() []SeriesKey {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]SeriesKey, 0, len(h.order))
	for _, r := range h.order {
		out = append(out, SeriesKey{Key: r.name + r.labels, Kind: r.kind.String()})
	}
	return out
}

// SeriesWindow is the retained window of one series, oldest tick first.
type SeriesWindow struct {
	Key  string `json:"key"`
	Kind string `json:"kind"`
	// WallNanos stamps each retained tick (UnixNano).
	WallNanos []int64 `json:"wall_nanos"`
	// Values holds per-tick deltas for counters, sampled values for gauges,
	// and per-tick observation counts for histograms.
	Values []int64 `json:"values"`
	// Cumulative is the series' running total as of the newest tick
	// (counters, histogram counts); latest value for gauges.
	Cumulative int64 `json:"cumulative"`
	// Quantiles is the Merge of the window's bucket-wise deltas — the
	// exact distribution observed across the window (histograms only).
	Quantiles *LogHistogramSnapshot `json:"quantiles,omitempty"`
}

// Window returns up to n most recent ticks for every series whose key
// equals key or whose metric name equals key (so a bare name fans out to
// all label sets). n <= 0 means the full retained window. Safe on nil.
func (h *History) Window(key string, n int) []SeriesWindow {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	avail := h.retainedLocked()
	if n <= 0 || n > avail {
		n = avail
	}
	var out []SeriesWindow
	for _, r := range h.order {
		if r.name+r.labels != key && r.name != key {
			continue
		}
		w := SeriesWindow{
			Key:        r.name + r.labels,
			Kind:       r.kind.String(),
			WallNanos:  make([]int64, 0, n),
			Values:     make([]int64, 0, n),
			Cumulative: r.prev,
		}
		if r.kind == kindGauge {
			w.Cumulative = h.latestLocked(r)
		}
		var merged LogHistogramSnapshot
		for i := h.count - int64(n); i < h.count; i++ {
			slot := int(i % int64(h.cfg.Capacity))
			w.WallNanos = append(w.WallNanos, h.times[slot].wall)
			w.Values = append(w.Values, r.vals[slot])
			if r.hists != nil {
				merged = merged.Merge(r.hists[slot])
			}
		}
		if r.hists != nil {
			w.Quantiles = &merged
		}
		out = append(out, w)
	}
	return out
}

// latestLocked returns the series' newest stored value (gauges) or 0 when
// no tick has been taken yet.
func (h *History) latestLocked(r *seriesRing) int64 {
	if h.count == 0 {
		return 0
	}
	return r.vals[int((h.count-1)%int64(h.cfg.Capacity))]
}

// windowSumLocked sums the last n stored values of r (deltas for counters,
// observation counts for histograms).
func (h *History) windowSumLocked(r *seriesRing, n int) int64 {
	avail := h.retainedLocked()
	if n <= 0 || n > avail {
		n = avail
	}
	sum := int64(0)
	for i := h.count - int64(n); i < h.count; i++ {
		sum += r.vals[int(i%int64(h.cfg.Capacity))]
	}
	return sum
}

// windowElapsedLocked returns the monotonic nanoseconds covered by the
// last n deltas: newest stamp minus the stamp n ticks back (clamped to
// the retained range).
func (h *History) windowElapsedLocked(n int) int64 {
	if h.count < 2 {
		return 0
	}
	avail := h.retainedLocked()
	if n <= 0 || n > avail-1 {
		n = avail - 1
	}
	if n <= 0 {
		return 0
	}
	newest := h.times[int((h.count-1)%int64(h.cfg.Capacity))].mono
	oldest := h.times[int((h.count-1-int64(n))%int64(h.cfg.Capacity))].mono
	if newest <= oldest {
		return 0
	}
	return newest - oldest
}

// windowHistLocked merges the last n bucket-wise deltas of a histogram
// series into one distribution.
func (h *History) windowHistLocked(r *seriesRing, n int) LogHistogramSnapshot {
	var merged LogHistogramSnapshot
	if r.hists == nil {
		return merged
	}
	avail := h.retainedLocked()
	if n <= 0 || n > avail {
		n = avail
	}
	for i := h.count - int64(n); i < h.count; i++ {
		merged = merged.Merge(r.hists[int(i%int64(h.cfg.Capacity))])
	}
	return merged
}

// matchRingsLocked returns every ring with metric name `name` whose
// rendered labels contain each pair in match. Label rendering is
// deterministic and escaped, so substring matching on `k="v"` pairs is a
// sound subset test.
func (h *History) matchRingsLocked(name string, match Labels) []*seriesRing {
	var needles []string
	for k, v := range match {
		needles = append(needles, k+`="`+escapeLabelValue(v)+`"`)
	}
	var out []*seriesRing
	for _, r := range h.order {
		if r.name != name {
			continue
		}
		ok := true
		for _, nd := range needles {
			if !strings.Contains(r.labels, nd) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, r)
		}
	}
	return out
}

// HistoryPage serves the retained windows as JSON:
//
//	/debug/history                 — series listing + tick count
//	/debug/history?series=NAME     — windows for NAME (all label sets)
//	/debug/history?series=K&n=30   — last 30 ticks only
func HistoryPage(h *History) Page {
	return Page{
		Path:  "/debug/history",
		Title: "metrics history (ring-buffer windows; ?series=NAME&n=TICKS)",
		Handler: http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			w.Header().Set("Cache-Control", "no-cache")
			if h == nil {
				w.WriteHeader(http.StatusServiceUnavailable)
				io.WriteString(w, `{"error":"history sampling disabled"}`+"\n")
				return
			}
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			series := req.URL.Query().Get("series")
			if series == "" {
				keys := h.Series()
				sort.Slice(keys, func(i, j int) bool { return keys[i].Key < keys[j].Key })
				enc.Encode(struct {
					Samples int64       `json:"samples"`
					Series  []SeriesKey `json:"series"`
				}{h.Samples(), keys})
				return
			}
			n, _ := strconv.Atoi(req.URL.Query().Get("n"))
			windows := h.Window(series, n)
			if len(windows) == 0 {
				w.WriteHeader(http.StatusNotFound)
				enc.Encode(struct {
					Error string `json:"error"`
				}{"no such series: " + series})
				return
			}
			enc.Encode(windows)
		}),
	}
}
