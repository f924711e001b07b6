// Command upaquery runs one or more of the paper's experimental queries, or
// CQL queries, over a trace (a CSV file from tracegen, or a freshly
// generated one) under a chosen execution strategy, printing the annotated
// plan, progress, and final statistics. Several queries run on one shared
// registry, which executes identical sub-plans once; every flag means the
// same for them as for one query.
//
// Usage:
//
//	upaquery -query q1-ftp -strategy upa -window 5000
//	upaquery -query q1-ftp -query q1-telnet -query 'a=SELECT DISTINCT src FROM S0 [RANGE 5000]'
//	upaquery -query q1-ftp -strategy upa -shards 4
//	upaquery -query q3 -strategy nt -window 2000 -trace trace.csv
//	upaquery -query q3 -strategy upa -explain
//	upaquery -query q3 -strategy upa -analyze
//	upaquery -cql "SELECT DISTINCT src FROM S0 [RANGE 2000]" -links 1
//	upaquery -query q3 -strategy nt -metrics-addr :9090
//	upaquery -query q1-ftp -strategy upa -latency
//	upaquery -query q1-ftp -strategy upa -health -slo-p99 5ms
//	upaquery -query q1-ftp -checkpoint-dir ./state -checkpoint-every 100000
//	upaquery -list
//
// -explain prints the annotated physical plan (per-operator update-pattern
// class, state structures, partition-key status) and exits without running;
// -analyze runs the trace and then prints the same tree with each
// operator's live counters (EXPLAIN ANALYZE). With -metrics-addr the run
// serves live Prometheus text-format metrics at /metrics (plus
// /metrics.json, /debug/pprof/, and the running plan at
// /debug/plan?analyze=1) while it is in progress.
//
// -latency records every output delta's ingest→emit latency and prints a
// percentile table plus the update-pattern conformance verdict (declared vs
// observed class per operator) at exit.
//
// -health runs the self-monitoring subsystem during the run: a history
// sampler over the engine's registry plus the built-in health rules
// (pattern violations, premature expirations, partition-join wait, staleness
// lag, checkpoint age, and — with -slo-p99 — the delta-latency p99 SLO).
// Alert transitions print to stderr as they fire, a final per-rule report
// prints at exit, and a CRIT overall verdict exits with code 2. With
// -metrics-addr the live status is served at /debug/health (JSON, or HTML
// with ?format=html) and retained series windows at
// /debug/history?series=NAME.
//
// With -checkpoint-dir the run writes a versioned binary checkpoint of the
// whole engine (atomically, via temp file + rename) every -checkpoint-every
// tuples and once at the end; when the directory already holds a
// checkpoint, the run restores it and resumes the trace where the previous
// process stopped (the synthetic trace is deterministic, so skipping as many
// records of the links the queries read as the checkpoint holds arrivals
// replays the exact remainder). -max-tuples bounds the run so a later
// invocation can finish it, and -dump-view writes the sorted final answer
// for diffing two runs.
//
// Several queries cannot be key-partitioned: with -shards they run
// sequentially, and the run says so, as it does for a plan without a
// routing key. Records on links no query reads are skipped and counted.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/cql"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/trace"
	"repro/internal/tuple"
)

var queryNames = map[string]bench.Query{
	"q1-ftp":      bench.Q1FTP,
	"q1-telnet":   bench.Q1Telnet,
	"q2":          bench.Q2Distinct,
	"q2-pairs":    bench.Q2Pairs,
	"q3":          bench.Q3Negation,
	"q3-disjoint": bench.Q3Disjoint,
	"q4":          bench.Q4DistinctJoin,
	"q5-pushdown": bench.Q5PushDown,
	"q5-pullup":   bench.Q5PullUp,
	"q6-groupby":  bench.Q6GroupBy,
}

// multiFlag collects repeated occurrences of one flag.
type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}

// options are the run's flags.
type options struct {
	queries                           multiFlag
	cql                               string
	links                             int
	strategy                          string
	window, duration                  int64
	trace                             string
	partitions, shards                int
	metricsAddr                       string
	progress                          time.Duration
	explain, analyze, latency, health bool
	sloP99, healthInterval            time.Duration
	checkpointDir                     string
	checkpointEvery, maxTuples        int
	dumpView                          string
}

func main() {
	var o options
	flag.Var(&o.queries, "query", "query to run: a name from -list, or name=CQL for a named ad-hoc query; repeat the flag to run several queries on one shared registry (default q1-ftp)")
	flag.StringVar(&o.cql, "cql", "", "also run this CQL query, named cql (streams S0..S{links-1} carry the trace schema)")
	flag.IntVar(&o.links, "links", 2, "number of trace links for CQL queries")
	flag.StringVar(&o.strategy, "strategy", "upa", "execution strategy: nt, direct, or upa")
	flag.Int64Var(&o.window, "window", 5000, "sliding window size in time units")
	flag.Int64Var(&o.duration, "duration", 0, "trace duration in time units (default 2x window)")
	flag.StringVar(&o.trace, "trace", "", "CSV trace file (default: generate synthetically)")
	flag.IntVar(&o.partitions, "partitions", 10, "state-buffer partitions")
	flag.IntVar(&o.shards, "shards", 1, "run key-partitioned across this many parallel shards (falls back to 1 with a reason when the plan has no routing key, or when several queries run)")
	flag.StringVar(&o.metricsAddr, "metrics-addr", "", "serve live metrics/pprof on this address (e.g. :9090)")
	flag.DurationVar(&o.progress, "progress", time.Second, "progress-line interval (0 disables)")
	flag.BoolVar(&o.explain, "explain", false, "print the annotated physical plan (EXPLAIN) and exit")
	flag.BoolVar(&o.analyze, "analyze", false, "after the run, print the plan with live per-operator counters (EXPLAIN ANALYZE)")
	flag.BoolVar(&o.latency, "latency", false, "record ingest-to-emit delta latency and print percentiles plus the conformance verdict at exit")
	flag.BoolVar(&o.health, "health", false, "run the self-monitoring health subsystem (built-in rules, alert log on stderr, final report; exit code 2 on CRIT)")
	flag.DurationVar(&o.sloP99, "slo-p99", 0, "delta-latency p99 SLO for the built-in health rule (e.g. 5ms; implies -health)")
	flag.DurationVar(&o.healthInterval, "health-interval", 200*time.Millisecond, "health sampling cadence")
	flag.StringVar(&o.checkpointDir, "checkpoint-dir", "", "checkpoint into this directory and resume from an existing checkpoint on start")
	flag.IntVar(&o.checkpointEvery, "checkpoint-every", 0, "also checkpoint every N processed tuples (0: only a final checkpoint)")
	flag.IntVar(&o.maxTuples, "max-tuples", 0, "stop after this many trace records (0: the whole trace)")
	flag.StringVar(&o.dumpView, "dump-view", "", "after the run, write the sorted result view to this file (FILE.NAME per query when several run)")
	list := flag.Bool("list", false, "list query names and exit")
	flag.Parse()

	if *list {
		names := make([]string, 0, len(queryNames))
		for name := range queryNames {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			q := queryNames[name]
			fmt.Printf("%-12s %s (%d links)\n", name, q, q.Links())
		}
		return
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "upaquery:", err)
		if errors.Is(err, errHealthCrit) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// errHealthCrit maps a CRIT final health verdict to exit code 2, so
// scripted callers can tell "the run failed" from "the run finished but
// the engine is unhealthy".
var errHealthCrit = errors.New("health is CRIT")

// query is one query of the run: a paper query from -list, or CQL.
type query struct {
	name  string
	root  *plan.Node
	q     bench.Query // the paper query; Q1's stats stand in for CQL
	cql   bool
	links int // the trace links it needs
}

// parseQueries resolves the -query values, each a name from -list or
// name=CQL over cqlLinks links. A repeated name gets -2, -3, ... suffixes.
func parseQueries(specs []string, cqlLinks int, windowSize int64) ([]query, error) {
	cat := traceCatalog(cqlLinks)
	seen := map[string]int{}
	out := make([]query, 0, len(specs))
	for _, spec := range specs {
		var nq query
		if name, text, ok := strings.Cut(spec, "="); ok {
			root, err := cql.Parse(text, cat)
			if err != nil {
				return nil, fmt.Errorf("query %s: %w", name, err)
			}
			nq = query{name: name, root: root, cql: true, links: cqlLinks}
		} else {
			q, ok := queryNames[strings.ToLower(spec)]
			if !ok {
				return nil, fmt.Errorf("unknown query %q (use -list, or name=CQL)", spec)
			}
			nq = query{name: spec, root: bench.BuildPlan(q, windowSize), q: q, links: q.Links()}
		}
		seen[nq.name]++
		if n := seen[nq.name]; n > 1 {
			nq.name = fmt.Sprintf("%s-%d", nq.name, n)
		}
		out = append(out, nq)
	}
	return out, nil
}

// eachQuery runs fn for every query, under a "=== name ===" line and
// followed by a blank line when the run has several.
func eachQuery(w io.Writer, hs []*exec.QueryHandle, fn func(h *exec.QueryHandle) error) error {
	for _, h := range hs {
		if len(hs) > 1 {
			fmt.Fprintf(w, "=== %s ===\n", h.Name())
		}
		if err := fn(h); err != nil {
			return err
		}
		if len(hs) > 1 {
			fmt.Fprintln(w)
		}
	}
	return nil
}

func run(o options) error {
	healthOn := o.health || o.sloP99 > 0
	strat, err := parseStrategy(o.strategy)
	if err != nil {
		return err
	}
	specs := o.queries
	if o.cql != "" {
		specs = append(specs, "cql="+o.cql)
	}
	if len(specs) == 0 {
		specs = multiFlag{"q1-ftp"}
	}
	qs, err := parseQueries(specs, o.links, o.window)
	if err != nil {
		return err
	}
	duration := o.duration
	if duration <= 0 {
		duration = 2 * o.window
	}
	// The trace carries every link a query needs, and disjoint sources when
	// every query asks for them.
	gen := trace.Config{Links: 1, Seed: 42, DisjointSources: true}
	phys := make([]*plan.Physical, len(qs))
	for i, q := range qs {
		gen.Links = max(gen.Links, q.links)
		gen.DisjointSources = gen.DisjointSources && !q.cql && q.q.DisjointSources()
		if err := plan.Annotate(q.root, bench.PlanStats(q.q, 0)); err != nil {
			return fmt.Errorf("query %s: %w", q.name, err)
		}
		if phys[i], err = plan.Build(q.root, strat, plan.Options{Partitions: o.partitions}); err != nil {
			return fmt.Errorf("query %s: %w", q.name, err)
		}
	}
	gen.Tuples = int(duration) * gen.Links

	cfg := exec.Config{EagerInterval: 1, LazyInterval: max(o.window/20, 1)}
	var reg *obs.Registry
	if o.metricsAddr != "" || o.latency || healthOn {
		// -latency and -health need the registry too: delta-latency
		// histograms (like all wall-clock instruments) record only when
		// Config.Metrics is set, and health rules read registered series.
		reg = obs.NewRegistry()
		cfg.Metrics = reg
	}
	// A lone query stays unnamed, so its series keep the engine-wide shape.
	spec := func(i int) exec.QuerySpec {
		if len(qs) == 1 {
			return exec.QuerySpec{Phys: phys[i]}
		}
		return exec.QuerySpec{Name: qs[i].name, Phys: phys[i]}
	}
	shards := o.shards
	if len(qs) > 1 && shards > 1 {
		fmt.Fprintf(os.Stderr, "sharding fell back to sequential: %d queries share one registry, which does not partition\n", len(qs))
		shards = 1
	}
	eng, fallback, err := exec.Open(spec(0), cfg, shards)
	if err != nil {
		return err
	}
	defer eng.Close()
	if fallback != "" {
		fmt.Fprintf(os.Stderr, "sharding fell back to sequential: %s\n", fallback)
	} else if shards > 1 {
		fmt.Fprintf(os.Stderr, "running key-partitioned across %d shards\n", eng.Shards())
	}
	for i := 1; i < len(qs); i++ {
		if _, err := eng.RegisterQuery(spec(i)); err != nil {
			return fmt.Errorf("register %s: %w", qs[i].name, err)
		}
	}
	handles := eng.Queries()

	if len(handles) == 1 {
		root := qs[0].root
		fmt.Printf("plan under %v:\n%s", strat, root)
		fmt.Printf("estimated cost: NT=%.0f DIRECT=%.0f UPA=%.0f\n\n",
			plan.Cost(root, plan.NT), plan.Cost(root, plan.Direct), plan.Cost(root, plan.UPA))
		if o.explain {
			return handles[0].Explain(false).WriteText(os.Stdout)
		}
	} else {
		s := eng.Sharing()
		fmt.Printf("registered %d queries under %v: %d physical operators for %d plan nodes, %d windows for %d sources (sharing ratio %.2f); %d independent components, ingested on up to %d cores\n\n",
			s.Queries, strat, s.LiveNodes, s.PlanNodes, s.LiveSources, s.PlanSources, s.Ratio(), s.Components, min(s.Components, runtime.GOMAXPROCS(0)))
		if err := eachQuery(os.Stdout, handles, func(h *exec.QueryHandle) error { return h.Explain(false).WriteText(os.Stdout) }); err != nil {
			return err
		}
		if o.explain {
			return nil
		}
	}

	var healthMon *obs.Health
	if healthOn {
		hist := obs.NewHistory(reg, obs.HistoryConfig{Interval: o.healthInterval})
		hist.BeforeSample(obs.RegisterProcessMetrics(reg))
		healthMon = obs.NewHealth(hist, eng.HealthRules(exec.HealthSLO{DeltaP99: o.sloP99})...)
		healthMon.AddSink(obs.NewLogAlertSink(os.Stderr))
		// Baseline tick before ingest: each series' first sample records a
		// zero delta, so without this a run shorter than the sampling
		// interval would fold its whole activity into the baseline and the
		// final report would see nothing.
		healthMon.Tick()
		healthMon.Start()
		defer healthMon.Stop()
	}
	if o.metricsAddr != "" {
		// The plan page reads only atomic instruments, so serving it while
		// the run is in flight is safe.
		planPage := exec.PlanPage(func() []*exec.QueryHandle { return handles })
		confPage := obs.Page{
			Path:  "/debug/conformance",
			Title: "update-pattern conformance: declared vs observed per operator",
			Handler: func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "text/plain; charset=utf-8")
				_ = eachQuery(w, handles, func(h *exec.QueryHandle) error { return exec.WriteConformance(w, h.Profile()) })
			},
		}
		pages := []obs.Page{planPage, confPage,
			obs.HealthPage(healthMon), obs.HistoryPage(healthMon.History())}
		srv, err := obs.Serve(o.metricsAddr, reg, pages...)
		if err != nil {
			return fmt.Errorf("metrics endpoint: %w", err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "serving metrics on http://%s/metrics (plan at /debug/plan, conformance at /debug/conformance, health at /debug/health, history at /debug/history, pprof at /debug/pprof/)\n", srv.Addr())
	}

	ckptFile := ""
	if o.checkpointDir != "" {
		if err := os.MkdirAll(o.checkpointDir, 0o755); err != nil {
			return err
		}
		ckptFile = filepath.Join(o.checkpointDir, "checkpoint.ckpt")
	}
	// writeCheckpoint snapshots atomically: a crash mid-write leaves the
	// previous checkpoint intact, never a truncated one.
	writeCheckpoint := func() error {
		tmp := ckptFile + ".tmp"
		f, err := os.Create(tmp)
		if err != nil {
			return err
		}
		err = eng.Checkpoint(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			os.Remove(tmp)
			return err
		}
		return os.Rename(tmp, ckptFile)
	}
	skip := 0
	if ckptFile != "" {
		if f, err := os.Open(ckptFile); err == nil {
			err = eng.Restore(f)
			f.Close()
			if err != nil {
				return fmt.Errorf("resume from %s: %w", ckptFile, err)
			}
			skip = int(eng.Stats().Arrivals)
			fmt.Fprintf(os.Stderr, "resumed from %s at %d arrivals\n", ckptFile, skip)
		} else if !os.IsNotExist(err) {
			return err
		}
	}

	// A trace can carry links no query reads (e.g. three links on disk,
	// queries over S0/S1 only); those records are skipped, like a
	// deployment that never subscribed to the stream.
	reads := map[int]bool{}
	for _, id := range eng.Streams() {
		reads[id] = true
	}
	skipped := 0
	// Whichever executor Open chose takes the batched fast path: whole
	// same-(stream, timestamp) runs flow down the plan with pooled emit
	// buffers. Progress and periodic checkpoints land on batch boundaries.
	start := time.Now()
	prog := newProgress(start, o.progress)
	// flushed is the cumulative arrival count (restored arrivals included) at
	// the last batch boundary; a periodic checkpoint fires when a batch
	// crosses a -checkpoint-every boundary.
	flushed := skip
	err = feedTrace(o.trace, gen, skip, o.maxTuples,
		func(r *trace.Record) bool {
			if !reads[r.Link] {
				skipped++
			}
			return reads[r.Link]
		},
		func(batch []exec.Arrival, fed int) error {
			if err := eng.PushBatch(batch); err != nil {
				return err
			}
			prog.maybe(fed-skip, eng)
			prev := flushed
			flushed = fed
			if ckptFile == "" || o.checkpointEvery <= 0 || prev/o.checkpointEvery == fed/o.checkpointEvery {
				return nil
			}
			return writeCheckpoint()
		})
	if err != nil {
		return err
	}
	// The final checkpoint holds the state as the trace left it, before the
	// summary's Sync: a run resumed from it then makes the same passes, and
	// counts the same touches, as a run that never stopped.
	if ckptFile != "" {
		if err := writeCheckpoint(); err != nil {
			return err
		}
		if fi, err := os.Stat(ckptFile); err == nil {
			fmt.Fprintf(os.Stderr, "checkpoint written to %s (%d bytes)\n", ckptFile, fi.Size())
		}
	}
	// ResultCount syncs, and the first call is the run's Sync: every pending
	// expiration is applied before the statistics.
	counts := make([]int, len(handles))
	for i, h := range handles {
		if counts[i], err = h.ResultCount(); err != nil {
			return err
		}
	}
	elapsed := time.Since(start)

	st := eng.Stats()
	touched, err := eng.Touched()
	if err != nil {
		return err
	}
	if st.Arrivals == 0 {
		fmt.Println("no tuples processed (empty trace)")
		return nil
	}
	across := ""
	if len(handles) > 1 {
		across = fmt.Sprintf(" across %d queries", len(handles))
	}
	fmt.Printf("processed %d tuples in %v (%.3f ms per 1000 tuples)%s\n",
		st.Arrivals, elapsed.Round(time.Millisecond),
		float64(elapsed.Nanoseconds())/1e6/float64(st.Arrivals)*1000, across)
	if skipped > 0 {
		fmt.Printf("skipped %d trace records on links no query reads\n", skipped)
	}
	fmt.Printf("results emitted %d, retracted %d, window negatives %d\n",
		st.Emitted, st.Retracted, st.WindowNegatives)
	if len(handles) == 1 {
		fmt.Printf("current result size %d, peak stored tuples %d, tuple touches %d\n",
			counts[0], st.MaxStateTuples, touched)
	} else {
		fmt.Printf("peak stored tuples %d, tuple touches %d\n\n", st.MaxStateTuples, touched)
		fmt.Printf("%-20s %12s %12s\n", "query", "results", "pattern")
		for i, h := range handles {
			fmt.Printf("%-20s %12d %12v\n", h.Name(), counts[i], h.Pattern())
		}
	}
	if o.analyze {
		fmt.Println()
		if err := eachQuery(os.Stdout, handles, func(h *exec.QueryHandle) error { return h.Explain(true).WriteText(os.Stdout) }); err != nil {
			return err
		}
	}
	if o.latency {
		pos, neg := eng.DeltaLatency()
		fmt.Println()
		fmt.Println("delta latency (ingest to view-fold, nanoseconds):")
		fmt.Printf("  %-10s %12s %12s %12s %12s %12s\n", "polarity", "count", "p50", "p95", "p99", "max")
		fmt.Printf("  %-10s %12d %12d %12d %12d %12d\n", "insertion", pos.Count, pos.P50, pos.P95, pos.P99, pos.Max)
		fmt.Printf("  %-10s %12d %12d %12d %12d %12d\n", "retraction", neg.Count, neg.P50, neg.P95, neg.P99, neg.Max)
		fmt.Println()
		if err := eachQuery(os.Stdout, handles, func(h *exec.QueryHandle) error { return exec.WriteConformance(os.Stdout, h.Profile()) }); err != nil {
			return err
		}
	}
	if healthOn {
		// Stop the wall-clock sampler first, then force one final tick so
		// even runs shorter than the interval report samples >= 1 and an
		// up-to-date verdict.
		healthMon.Stop()
		healthMon.Tick()
		hst := healthMon.Status()
		fmt.Println()
		hst.WriteText(os.Stdout)
		if hst.Overall == obs.SevCrit {
			return errHealthCrit
		}
	}
	if o.dumpView != "" {
		for _, h := range handles {
			path := o.dumpView
			if len(handles) > 1 {
				path += "." + h.Name()
			}
			if err := dumpRows(h, path); err != nil {
				return err
			}
		}
	}
	return nil
}

// dumpRows writes the query's answer to path, one row per line, sorted.
func dumpRows(h *exec.QueryHandle, path string) error {
	rows, err := h.Snapshot()
	if err != nil {
		return err
	}
	lines := make([]string, 0, len(rows))
	for _, t := range rows {
		lines = append(lines, t.String())
	}
	sort.Strings(lines)
	out := strings.Join(lines, "\n")
	if out != "" {
		out += "\n"
	}
	if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %d result rows to %s\n", len(lines), path)
	return nil
}

// progress prints a periodic line (tuples/s, clock, state, retraction rate)
// to stderr during a run.
type progress struct {
	every time.Duration
	start time.Time
	next  time.Time
}

func newProgress(start time.Time, every time.Duration) *progress {
	return &progress{every: every, start: start, next: start.Add(every)}
}

// ingestBatch is the number of arrivals per PushBatch.
const ingestBatch = 256

// feedTrace is the one place a run's trace is loaded: it streams the CSV file
// traceFile — or, with no file, the deterministic synthetic trace of gen —
// to push in batches of ingestBatch arrivals, holding one batch at a time
// whatever the trace's size. keep says whether a record is fed at all. The
// first skip records keep accepts (a resumed run has ingested them already)
// are read and dropped, and reading stops after maxTuples records (0: the
// whole trace), so a malformed line is reported when, and only if, the run
// reaches it. push also gets the number of records keep has accepted so
// far, the dropped ones included, and is called a last time with the final
// short (possibly empty) batch. A batch ends where that count reaches a
// multiple of ingestBatch, so a resumed run's first batch is short and its
// batches end where a straight run's do: the engine samples its state peak
// at batch ends, and the two runs then read the same peak.
func feedTrace(traceFile string, gen trace.Config, skip, maxTuples int,
	keep func(*trace.Record) bool, push func(batch []exec.Arrival, fed int) error) error {
	// next fills the record with values the engine may retain when it comes
	// in with none, and reuses the ones it has otherwise.
	var next func(*trace.Record) error
	if traceFile != "" {
		f, err := os.Open(traceFile)
		if err != nil {
			return err
		}
		defer f.Close()
		rd := trace.NewReader(f)
		width := trace.Schema().Len()
		var slab []tuple.Value // one allocation per batch, not per record
		next = func(rec *trace.Record) error {
			fresh := rec.Vals == nil
			if fresh {
				if len(slab) == 0 {
					slab = make([]tuple.Value, ingestBatch*width)
				}
				rec.Vals = slab[:width:width]
			}
			err := rd.Next(rec)
			if fresh && err == nil {
				slab = slab[width:]
			}
			return err
		}
	} else {
		if gen.Tuples <= 0 {
			gen.Tuples = 1000 // trace.Generate's default; a bare Generator never stops
		}
		g := trace.NewGenerator(gen)
		next = func(rec *trace.Record) error {
			r, ok := g.Next()
			if !ok {
				return io.EOF
			}
			*rec = r
			return nil
		}
	}
	more := func(read int) bool { return maxTuples <= 0 || read < maxTuples }
	read, fed := 0, 0
	var dropped trace.Record
	for fed < skip && more(read) {
		if err := next(&dropped); err == io.EOF {
			break
		} else if err != nil {
			return err
		}
		read++
		if keep(&dropped) {
			fed++
		}
	}
	batch := make([]exec.Arrival, 0, ingestBatch)
	for more(read) {
		var rec trace.Record
		if err := next(&rec); err == io.EOF {
			break
		} else if err != nil {
			return err
		}
		read++
		if !keep(&rec) {
			continue
		}
		fed++
		batch = append(batch, exec.Arrival{Stream: rec.Link, TS: rec.TS, Vals: rec.Vals})
		if fed%ingestBatch == 0 {
			if err := push(batch, fed); err != nil {
				return err
			}
			batch = batch[:0]
		}
	}
	return push(batch, fed)
}

// maybe emits a progress line when the interval has elapsed. It checks the
// wall clock only every 1024 tuples (or batch boundary) to keep the run
// loop cheap.
func (p *progress) maybe(tuples int, eng *exec.Engine) {
	if p.every <= 0 || tuples&1023 != 0 {
		return
	}
	now := time.Now()
	if now.Before(p.next) {
		return
	}
	p.next = now.Add(p.every)
	st := eng.Stats()
	state, err := eng.StateTuples()
	if err != nil {
		state = -1
	}
	rate := float64(tuples) / now.Sub(p.start).Seconds()
	retrRate := 0.0
	if st.Arrivals > 0 {
		retrRate = float64(st.Retracted) / float64(st.Arrivals)
	}
	fmt.Fprintf(os.Stderr, "progress: %d tuples (%.0f tuples/s), clock=%d, state=%d, emitted=%d, retracted=%d (%.3f/arrival)\n",
		tuples, rate, eng.Clock(), state, st.Emitted, st.Retracted, retrRate)
}

// traceCatalog names the trace's links S0..S{links-1} for CQL queries.
func traceCatalog(links int) cql.Catalog {
	cat := cql.Catalog{Streams: map[string]cql.StreamDef{}}
	for i := 0; i < links; i++ {
		cat.Streams[fmt.Sprintf("S%d", i)] = cql.StreamDef{ID: i, Schema: trace.Schema()}
	}
	return cat
}

// parseStrategy maps a -strategy value to the plan constant.
func parseStrategy(name string) (plan.Strategy, error) {
	switch strings.ToLower(name) {
	case "nt":
		return plan.NT, nil
	case "direct":
		return plan.Direct, nil
	case "upa":
		return plan.UPA, nil
	default:
		return 0, fmt.Errorf("unknown strategy %q (want nt, direct, or upa)", name)
	}
}
