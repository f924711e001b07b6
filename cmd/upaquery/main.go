// Command upaquery runs one of the paper's experimental queries over a
// trace (a CSV file from tracegen, or a freshly generated one) under a
// chosen execution strategy, printing the annotated plan, progress, and
// final statistics.
//
// Usage:
//
//	upaquery -query q1-ftp -strategy upa -window 5000
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
// With -checkpoint-dir the run writes a versioned binary checkpoint
// (atomically, via temp file + rename) every -checkpoint-every tuples and
// once at the end; when the directory already holds a checkpoint, the run
// restores it and resumes the trace where the previous process stopped (the
// synthetic trace is deterministic, so skipping the restored arrival count
// replays the exact remainder). -max-tuples bounds the run so a later
// invocation can finish it, and -dump-view writes the sorted final answer
// for diffing two runs.
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

func main() {
	var queries multiFlag
	flag.Var(&queries, "query", "query to run: a name from -list, or name=CQL for a named ad-hoc query; repeat the flag to run several queries on one shared registry (default q1-ftp)")
	cqlText := flag.String("cql", "", "run a CQL query instead (streams S0..S{links-1} carry the trace schema)")
	links := flag.Int("links", 2, "number of trace links for -cql queries")
	strategy := flag.String("strategy", "upa", "execution strategy: nt, direct, or upa")
	windowSize := flag.Int64("window", 5000, "sliding window size in time units")
	duration := flag.Int64("duration", 0, "trace duration in time units (default 2x window)")
	traceFile := flag.String("trace", "", "CSV trace file (default: generate synthetically)")
	partitions := flag.Int("partitions", 10, "state-buffer partitions")
	shards := flag.Int("shards", 1, "run key-partitioned across this many parallel shards (falls back to 1 with a reason when the plan has no routing key)")
	metricsAddr := flag.String("metrics-addr", "", "serve live metrics/pprof on this address (e.g. :9090)")
	progressEvery := flag.Duration("progress", time.Second, "progress-line interval (0 disables)")
	explain := flag.Bool("explain", false, "print the annotated physical plan (EXPLAIN) and exit")
	analyze := flag.Bool("analyze", false, "after the run, print the plan with live per-operator counters (EXPLAIN ANALYZE)")
	latency := flag.Bool("latency", false, "record ingest-to-emit delta latency and print percentiles plus the conformance verdict at exit")
	health := flag.Bool("health", false, "run the self-monitoring health subsystem (built-in rules, alert log on stderr, final report; exit code 2 on CRIT)")
	sloP99 := flag.Duration("slo-p99", 0, "delta-latency p99 SLO for the built-in health rule (e.g. 5ms; implies -health)")
	healthInterval := flag.Duration("health-interval", 200*time.Millisecond, "health sampling cadence")
	checkpointDir := flag.String("checkpoint-dir", "", "checkpoint into this directory and resume from an existing checkpoint on start")
	checkpointEvery := flag.Int("checkpoint-every", 0, "also checkpoint every N processed tuples (0: only a final checkpoint)")
	maxTuples := flag.Int("max-tuples", 0, "stop after this many trace records (0: the whole trace)")
	dumpView := flag.String("dump-view", "", "after the run, write the sorted result view to this file")
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
	var err error
	if len(queries) > 1 || (len(queries) == 1 && strings.Contains(queries[0], "=")) {
		err = runMulti(queries, *links, *strategy, *windowSize, *duration, *traceFile,
			*partitions, *progressEvery, *explain, *analyze, *dumpView)
	} else {
		single := "q1-ftp"
		if len(queries) == 1 {
			single = queries[0]
		}
		err = run(single, *cqlText, *links, *strategy, *windowSize, *duration, *traceFile,
			*partitions, *shards, *metricsAddr, *progressEvery, *explain, *analyze,
			*latency, *health, *sloP99, *healthInterval, *checkpointDir,
			*checkpointEvery, *maxTuples, *dumpView)
	}
	if err != nil {
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

func run(queryName, cqlText string, cqlLinks int, strategyName string, windowSize, duration int64,
	traceFile string, partitions, shards int, metricsAddr string, progressEvery time.Duration,
	explain, analyze, latency, healthOn bool, sloP99, healthInterval time.Duration,
	checkpointDir string, checkpointEvery, maxTuples int, dumpView string) error {
	healthOn = healthOn || sloP99 > 0
	var q bench.Query
	var root *plan.Node
	nLinks := 0
	if cqlText != "" {
		var err error
		root, err = cql.Parse(cqlText, traceCatalog(cqlLinks))
		if err != nil {
			return err
		}
		nLinks = cqlLinks
	} else {
		var ok bool
		q, ok = queryNames[strings.ToLower(queryName)]
		if !ok {
			return fmt.Errorf("unknown query %q (use -list)", queryName)
		}
		nLinks = q.Links()
	}
	strat, err := parseStrategy(strategyName)
	if err != nil {
		return err
	}
	if duration <= 0 {
		duration = 2 * windowSize
	}

	if root == nil {
		root = bench.BuildPlan(q, windowSize)
	}
	if err := plan.Annotate(root, bench.PlanStats(q, 0)); err != nil {
		return err
	}
	fmt.Printf("plan under %v:\n%s", strat, root)
	fmt.Printf("estimated cost: NT=%.0f DIRECT=%.0f UPA=%.0f\n\n",
		plan.Cost(root, plan.NT), plan.Cost(root, plan.Direct), plan.Cost(root, plan.UPA))

	phys, err := plan.Build(root, strat, plan.Options{Partitions: partitions})
	if err != nil {
		return err
	}
	if explain {
		return plan.Explain(phys).WriteText(os.Stdout)
	}
	lazy := windowSize / 20
	if lazy < 1 {
		lazy = 1
	}
	cfg := exec.Config{EagerInterval: 1, LazyInterval: lazy}

	var reg *obs.Registry
	if metricsAddr != "" || latency || healthOn {
		// -latency and -health need the registry too: delta-latency
		// histograms (like all wall-clock instruments) record only when
		// Config.Metrics is set, and health rules read registered series.
		reg = obs.NewRegistry()
		cfg.Metrics = reg
	}

	eng, fallback, err := exec.Open(exec.QuerySpec{Phys: phys}, cfg, shards)
	if err != nil {
		return err
	}
	defer eng.Close()
	h := eng.Queries()[0]
	if fallback != "" {
		fmt.Fprintf(os.Stderr, "sharding fell back to sequential: %s\n", fallback)
	} else if shards > 1 {
		fmt.Fprintf(os.Stderr, "running key-partitioned across %d shards\n", eng.Shards())
	}
	var healthMon *obs.Health
	if healthOn {
		hist := obs.NewHistory(reg, obs.HistoryConfig{Interval: healthInterval})
		hist.BeforeSample(obs.RegisterProcessMetrics(reg))
		healthMon = obs.NewHealth(hist, eng.HealthRules(exec.HealthSLO{DeltaP99: sloP99})...)
		healthMon.AddSink(obs.NewLogAlertSink(os.Stderr))
		// Baseline tick before ingest: each series' first sample records a
		// zero delta, so without this a run shorter than the sampling
		// interval would fold its whole activity into the baseline and the
		// final report would see nothing.
		healthMon.Tick()
		healthMon.Start()
		defer healthMon.Stop()
	}
	if metricsAddr != "" {
		// The plan page reads only atomic instruments, so serving it while
		// the run is in flight is safe.
		planPage := obs.Page{
			Path:  "/debug/plan",
			Title: "EXPLAIN of the running plan (?analyze=1, ?format=dot)",
			Handler: func(w http.ResponseWriter, r *http.Request) {
				t := h.Explain(r.URL.Query().Get("analyze") != "")
				if r.URL.Query().Get("format") == "dot" {
					w.Header().Set("Content-Type", "text/vnd.graphviz; charset=utf-8")
					_ = t.WriteDOT(w)
					return
				}
				w.Header().Set("Content-Type", "text/plain; charset=utf-8")
				_ = t.WriteText(w)
			},
		}
		confPage := obs.Page{
			Path:  "/debug/conformance",
			Title: "update-pattern conformance: declared vs observed per operator",
			Handler: func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "text/plain; charset=utf-8")
				_ = exec.WriteConformance(w, h.Profile())
			},
		}
		pages := []obs.Page{planPage, confPage,
			obs.HealthPage(healthMon), obs.HistoryPage(healthMon.History())}
		srv, err := obs.Serve(metricsAddr, reg, pages...)
		if err != nil {
			return fmt.Errorf("metrics endpoint: %w", err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "serving metrics on http://%s/metrics (plan at /debug/plan, conformance at /debug/conformance, health at /debug/health, history at /debug/history, pprof at /debug/pprof/)\n", srv.Addr())
	}

	ckptFile := ""
	if checkpointDir != "" {
		if err := os.MkdirAll(checkpointDir, 0o755); err != nil {
			return err
		}
		ckptFile = filepath.Join(checkpointDir, "checkpoint.ckpt")
	}
	// writeCheckpoint snapshots atomically: a crash mid-write leaves the
	// previous checkpoint intact, never a truncated one.
	writeCheckpoint := func() error {
		tmp := ckptFile + ".tmp"
		f, err := os.Create(tmp)
		if err != nil {
			return err
		}
		err = h.Checkpoint(f)
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

	gen := trace.Config{
		Links:           nLinks,
		Tuples:          int(duration) * nLinks,
		Seed:            42,
		DisjointSources: cqlText == "" && q.DisjointSources(),
	}
	// Whichever executor Open chose takes the batched fast path: whole
	// same-(stream, timestamp) runs flow down the plan with pooled emit
	// buffers. Progress and periodic checkpoints land on batch boundaries.
	start := time.Now()
	prog := newProgress(start, progressEvery)
	// flushed is the cumulative arrival count (restored arrivals included) at
	// the last batch boundary; a periodic checkpoint fires when a batch
	// crosses a -checkpoint-every boundary.
	flushed := skip
	err = feedTrace(traceFile, gen, skip, maxTuples,
		func(r *trace.Record) (bool, error) {
			if r.Link >= nLinks {
				return false, fmt.Errorf("trace record on link %d, but query reads %d links", r.Link, nLinks)
			}
			return true, nil
		},
		func(batch []exec.Arrival, read int) error {
			if err := eng.PushBatch(batch); err != nil {
				return err
			}
			prog.maybe(read-skip, eng)
			prev := flushed
			flushed = read
			if ckptFile == "" || checkpointEvery <= 0 || prev/checkpointEvery == read/checkpointEvery {
				return nil
			}
			return writeCheckpoint()
		})
	if err != nil {
		return err
	}
	// ResultCount is the run's one Sync: every pending expiration is applied
	// before the final checkpoint and the statistics.
	resultLen, err := h.ResultCount()
	if err != nil {
		return err
	}
	if ckptFile != "" {
		if err := writeCheckpoint(); err != nil {
			return err
		}
		if fi, err := os.Stat(ckptFile); err == nil {
			fmt.Fprintf(os.Stderr, "checkpoint written to %s (%d bytes)\n", ckptFile, fi.Size())
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
	fmt.Printf("processed %d tuples in %v (%.3f ms per 1000 tuples)\n",
		st.Arrivals, elapsed.Round(time.Millisecond),
		float64(elapsed.Nanoseconds())/1e6/float64(st.Arrivals)*1000)
	fmt.Printf("results emitted %d, retracted %d, window negatives %d\n",
		st.Emitted, st.Retracted, st.WindowNegatives)
	fmt.Printf("current result size %d, peak stored tuples %d, tuple touches %d\n",
		resultLen, st.MaxStateTuples, touched)
	if analyze {
		fmt.Println()
		if err := h.Explain(true).WriteText(os.Stdout); err != nil {
			return err
		}
	}
	if latency {
		pos, neg := eng.DeltaLatency()
		fmt.Println()
		fmt.Println("delta latency (ingest to view-fold, nanoseconds):")
		fmt.Printf("  %-10s %12s %12s %12s %12s %12s\n", "polarity", "count", "p50", "p95", "p99", "max")
		fmt.Printf("  %-10s %12d %12d %12d %12d %12d\n", "insertion", pos.Count, pos.P50, pos.P95, pos.P99, pos.Max)
		fmt.Printf("  %-10s %12d %12d %12d %12d %12d\n", "retraction", neg.Count, neg.P50, neg.P95, neg.P99, neg.Max)
		fmt.Println()
		if err := exec.WriteConformance(os.Stdout, h.Profile()); err != nil {
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
	if dumpView != "" {
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
		if err := os.WriteFile(dumpView, []byte(out), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %d result rows to %s\n", len(lines), dumpView)
	}
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
// whatever the trace's size. The first skip records (a resumed run has
// processed them already) are read and dropped, and reading stops after
// maxTuples records (0: the whole trace), so a malformed line is reported
// when, and only if, the run reaches it. keep says whether a record is fed at
// all; push also gets the number of trace records read so far, and is called
// a last time with the final short (possibly empty) batch.
func feedTrace(traceFile string, gen trace.Config, skip, maxTuples int,
	keep func(*trace.Record) (bool, error), push func(batch []exec.Arrival, read int) error) error {
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
	read := 0
	var dropped trace.Record
	for ; read < skip && more(read); read++ {
		if err := next(&dropped); err == io.EOF {
			break
		} else if err != nil {
			return err
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
		if ok, err := keep(&rec); err != nil {
			return err
		} else if !ok {
			continue
		}
		batch = append(batch, exec.Arrival{Stream: rec.Link, TS: rec.TS, Vals: rec.Vals})
		if len(batch) == cap(batch) {
			if err := push(batch, read); err != nil {
				return err
			}
			batch = batch[:0]
		}
	}
	return push(batch, read)
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

// runMulti registers several queries on one shared registry and runs the
// trace through it once. Each -query value is a bench query name or
// name=CQL; queries sharing sub-plans (same window, predicate, strategy)
// share physical state, which the per-query EXPLAIN annotates.
func runMulti(specs []string, cqlLinks int, strategyName string, windowSize, duration int64,
	traceFile string, partitions int, progressEvery time.Duration,
	explainOnly, analyze bool, dumpView string) error {
	strat, err := parseStrategy(strategyName)
	if err != nil {
		return err
	}
	if duration <= 0 {
		duration = 2 * windowSize
	}
	cat := traceCatalog(cqlLinks)
	type namedQuery struct {
		name string
		root *plan.Node
		q    bench.Query
		cql  bool
	}
	var nqs []namedQuery
	seen := map[string]int{}
	nLinks := 1
	for _, spec := range specs {
		var nq namedQuery
		if name, text, ok := strings.Cut(spec, "="); ok {
			root, err := cql.Parse(text, cat)
			if err != nil {
				return fmt.Errorf("query %s: %w", name, err)
			}
			nq = namedQuery{name: name, root: root, cql: true}
			if cqlLinks > nLinks {
				nLinks = cqlLinks
			}
		} else {
			q, ok := queryNames[strings.ToLower(spec)]
			if !ok {
				return fmt.Errorf("unknown query %q (use -list, or name=CQL)", spec)
			}
			nq = namedQuery{name: spec, root: bench.BuildPlan(q, windowSize), q: q}
			if q.Links() > nLinks {
				nLinks = q.Links()
			}
		}
		// Repeat a name and the instances get -2, -3, ... suffixes.
		seen[nq.name]++
		if n := seen[nq.name]; n > 1 {
			nq.name = fmt.Sprintf("%s-%d", nq.name, n)
		}
		nqs = append(nqs, nq)
	}

	lazy := windowSize / 20
	if lazy < 1 {
		lazy = 1
	}
	e := exec.NewMulti(exec.Config{EagerInterval: 1, LazyInterval: lazy})
	handles := make([]*exec.QueryHandle, 0, len(nqs))
	for _, nq := range nqs {
		if err := plan.Annotate(nq.root, bench.PlanStats(nq.q, 0)); err != nil {
			return fmt.Errorf("query %s: %w", nq.name, err)
		}
		phys, err := plan.Build(nq.root, strat, plan.Options{Partitions: partitions})
		if err != nil {
			return fmt.Errorf("query %s: %w", nq.name, err)
		}
		h, err := e.RegisterQuery(exec.QuerySpec{Name: nq.name, Phys: phys})
		if err != nil {
			return fmt.Errorf("register %s: %w", nq.name, err)
		}
		handles = append(handles, h)
	}
	s := e.Sharing()
	fmt.Printf("registered %d queries under %v: %d physical operators for %d plan nodes, %d windows for %d sources (sharing ratio %.2f); %d independent components, ingested on up to %d cores\n\n",
		s.Queries, strat, s.LiveNodes, s.PlanNodes, s.LiveSources, s.PlanSources, s.Ratio(), s.Components, min(s.Components, runtime.GOMAXPROCS(0)))
	for _, h := range handles {
		fmt.Printf("=== %s ===\n", h.Name())
		if err := h.Explain(false).WriteText(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
	}
	if explainOnly {
		return nil
	}

	// A shared trace can carry links no registered query reads (e.g. three
	// links on disk, queries over S0/S1 only); those records are skipped,
	// like a deployment that never subscribed to the stream.
	read := map[int]bool{}
	for _, id := range e.Streams() {
		read[id] = true
	}
	skipped := 0
	start := time.Now()
	prog := newProgress(start, progressEvery)
	gen := trace.Config{Links: nLinks, Tuples: int(duration) * nLinks, Seed: 42}
	err = feedTrace(traceFile, gen, 0, 0,
		func(r *trace.Record) (bool, error) {
			if !read[r.Link] {
				skipped++
			}
			return read[r.Link], nil
		},
		func(batch []exec.Arrival, n int) error {
			if err := e.PushBatch(batch); err != nil {
				return err
			}
			prog.maybe(n, e)
			return nil
		})
	if err != nil {
		return err
	}
	if err := e.Sync(); err != nil {
		return err
	}
	elapsed := time.Since(start)

	st := e.Stats()
	fmt.Printf("processed %d tuples in %v (%.3f ms per 1000 tuples) across %d queries\n",
		st.Arrivals, elapsed.Round(time.Millisecond),
		float64(elapsed.Nanoseconds())/1e6/float64(max(1, int(st.Arrivals)))*1000, len(handles))
	if skipped > 0 {
		fmt.Printf("skipped %d trace records on links no query reads\n", skipped)
	}
	stored, err := e.StateTuples()
	if err != nil {
		return err
	}
	touches, err := e.Touched()
	if err != nil {
		return err
	}
	fmt.Printf("shared state: %d stored tuples, %d tuple touches\n\n", stored, touches)
	fmt.Printf("%-20s %12s %12s\n", "query", "results", "pattern")
	for _, h := range handles {
		n, err := h.ResultCount()
		if err != nil {
			return err
		}
		fmt.Printf("%-20s %12d %12v\n", h.Name(), n, h.Pattern())
	}
	if analyze {
		for _, h := range handles {
			fmt.Printf("\n=== %s (ANALYZE) ===\n", h.Name())
			if err := h.Explain(true).WriteText(os.Stdout); err != nil {
				return err
			}
		}
	}
	if dumpView != "" {
		for _, h := range handles {
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
			path := fmt.Sprintf("%s.%s", dumpView, h.Name())
			if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "wrote %d result rows to %s\n", len(lines), path)
		}
	}
	return nil
}
