package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
)

// metricDef fixes a metric's name, unit, direction and — for end-to-end
// metrics — the share of the base's median by which it may get worse
// before that counts as a regression. BENCHMARK.json repeats these.
type metricDef struct {
	name, unit string
	higher     bool // higher is better
	bound      float64
}

var endToEnd = []metricDef{
	{"tuples_per_s", "tuples/s", true, 0.25},
	{"allocs_per_tuple", "allocs/tuple", false, 0.05},
	{"live_heap_mb", "MB", false, 0.25},
	{"setup_s", "s", false, 0.25},
}

// value is one reported metric. Samples are the per-pass (or per-set-up)
// readings the value is the median of; -compare reads them to tell a
// regression from a set whose own passes disagree.
type value struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Samples []float64 `json:"samples,omitempty"`
}

// result is the last line of standard output: exactly these keys.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// sizes are the calibrated constants of a workload, recorded with every run.
type sizes struct {
	Links      int   `json:"links"`
	Window     int64 `json:"window"`
	Records    int   `json:"records_per_pass"`
	Batch      int   `json:"batch"`
	CSVChunk   int   `json:"csv_chunk,omitempty"`
	Shards     int   `json:"shards,omitempty"`
	Queries    int   `json:"queries"`
	SetupReps  int   `json:"setup_repetitions"`
	RunSeconds int   `json:"run_seconds"`
}

// latency describes the ingest-call latencies of the timed passes. None of
// it is gated: the p99 did not repeat within any bound the contract allows
// (see README, "Steadiness"), so it is a per-layer metric of the traced run
// (exec.push_p99_us) and context here.
type latency struct {
	CallsPerPass int     `json:"calls_per_pass"`
	BeyondP99    int     `json:"samples_beyond_p99_per_pass"`
	P50us        float64 `json:"p50_us"`
	P99us        float64 `json:"p99_us"`
	P999us       float64 `json:"p99.9_us,omitempty"` // only with ≥ 10 samples beyond it
	MaxUs        float64 `json:"max_us"`
}

// workloadReport is everything one workload's run produced.
type workloadReport struct {
	Workload string `json:"workload"`
	Why      string `json:"why"`
	Traced   bool   `json:"traced"`
	Seed     int64  `json:"seed"`
	Sizes    sizes  `json:"sizes"`
	Passes   int    `json:"timed_passes"`
	result
	Latency  *latency           `json:"latency,omitempty"`
	SetupMs  map[string]float64 `json:"setup_ms,omitempty"`
	Output   map[string]int64   `json:"output_per_pass,omitempty"`
	Layers   []layerRow         `json:"layers,omitempty"`
	Ops      []opRow            `json:"operators,omitempty"`
	Warnings []string           `json:"warnings,omitempty"`
}

// host is where and how the run was made.
type host struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

// report is the -out file: one schema for every run of the suite.
type report struct {
	Schema    int              `json:"schema"`
	Host      host             `json:"host"`
	Claim     *string          `json:"claim"` // this suite measures; it claims nothing
	Workloads []workloadReport `json:"workloads"`
}

func hostBlock() host {
	return host{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH,
	}
}

func sizesOf(w workload, setupReps int, seconds float64) sizes {
	s := sizes{Links: w.links, Window: w.window, Records: w.records, Batch: w.batch,
		Queries: len(w.queries), SetupReps: setupReps, RunSeconds: int(seconds)}
	if w.grain == grainCSV {
		s.CSVChunk = csvChunk
	}
	if w.shards > 1 {
		s.Shards = w.shards
	}
	return s
}

// print writes the human-readable block of one workload. The machine-read
// result line is written separately, last.
func (r *workloadReport) print(w io.Writer) {
	mode := "end-to-end"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "\n== %s (%s, seed %d) ==\n", r.Workload, mode, r.Seed)
	fmt.Fprintf(w, "   %s\n", r.Why)
	s := r.Sizes
	fmt.Fprintf(w, "   sizes: %d links, window %d, %d records/pass, batch %d, %d queries",
		s.Links, s.Window, s.Records, s.Batch, s.Queries)
	if s.Shards > 0 {
		fmt.Fprintf(w, ", %d shards", s.Shards)
	}
	fmt.Fprintf(w, "; %d timed passes\n", r.Passes)
	if len(r.Output) > 0 {
		fmt.Fprintf(w, "   output per pass: emitted %d, retracted %d, results %d (identical on every pass)\n",
			r.Output["emitted"], r.Output["retracted"], r.Output["results"])
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "   %-34s %16s %-13s %s\n", "metric", "value", "unit", "samples")
	for _, n := range names {
		v := r.Metrics[n]
		fmt.Fprintf(w, "   %-34s %16.4f %-13s %d\n", n, v.Value, v.Unit, max(len(v.Samples), 1))
	}
	if l := r.Latency; l != nil {
		fmt.Fprintf(w, "   ingest call: %d calls/pass (%d beyond p99), p50 %.2f us, p99 %.2f us",
			l.CallsPerPass, l.BeyondP99, l.P50us, l.P99us)
		if l.P999us > 0 {
			fmt.Fprintf(w, ", p99.9 %.2f us", l.P999us)
		}
		fmt.Fprintf(w, ", max %.2f us (medians over passes; not gated)\n", l.MaxUs)
	}
	if len(r.SetupMs) > 0 {
		fmt.Fprintf(w, "   set-up (median of %d): generate %.0f ms, compile %.1f ms, oracle %.0f ms, warm-up pass %.0f ms\n",
			s.SetupReps, r.SetupMs["generate"], r.SetupMs["compile"], r.SetupMs["oracle"], r.SetupMs["warm"])
	}
	printLayers(w, r)
	fmt.Fprintf(w, "   ops: attempted %d, failed %d; correct: %v\n", r.Attempted, r.Failed, r.Correct)
	for _, warn := range r.Warnings {
		fmt.Fprintf(w, "   WARNING: %s\n", warn)
	}
}

// resultLine writes the contract's last line.
func (r *workloadReport) resultLine(w io.Writer) error {
	out := result{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]value{}}
	for n, v := range r.Metrics {
		out.Metrics[n] = value{Value: v.Value, Unit: v.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func writeReport(path string, rep report) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readReport(path string) (report, error) {
	var rep report
	b, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(b, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}
