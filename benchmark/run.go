package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"repro"
	"repro/internal/trace"
)

// passResult is what one pass over the input measured.
type passResult struct {
	wall    time.Duration // first input byte or record in → Sync returned
	records int
	lat     []int64 // wall time of each ingest call, ns
	calls   callSummary
	mallocs uint64 // runtime.MemStats.Mallocs delta over the timed region
	ops     int    // Push / PushBatch / Checkpoint / Sync calls made
	err     error  // first error a call returned

	// Output signature: must repeat exactly between timed passes.
	emitted, retracted int64
	results            int
	violations         int64

	ckptBytes int64 // size of the mid-pass registry checkpoint
}

// signature is the part of a pass that must be identical on every timed
// pass of an engine: the passes replay the same records from the same
// steady state.
type signature struct {
	emitted, retracted int64
	results            int
}

func (p passResult) signature() signature {
	return signature{p.emitted, p.retracted, p.results}
}

// answerOnly is the signature of a pass whose transient output need not
// repeat (see workload.repeats): the answer still must.
func (p passResult) answerOnly() signature {
	return signature{results: p.results}
}

// leg is one engine instance measured pass after pass.
type leg struct {
	name string
	sys  *system
	rec  *recorder // nil: untraced
	lat  []int64   // reused latency buffer

	passes []passResult // timed passes only
	failed int          // ops of passes that failed a check
}

// passRun is the state of one pass in flight.
type passRun struct {
	s         *system
	rec       *recorder
	res       passResult
	emitChild bool
	t0        time.Time
	n0, c0    int64
}

func (p *passRun) fail(err error) {
	if err != nil && p.res.err == nil {
		p.res.err = err
	}
}

// beginIngest and endIngest bracket one Push or PushBatch call. They are
// plain methods, not closures, so the harness itself allocates nothing per
// call and allocs_per_tuple counts the engine's allocations only.
func (p *passRun) beginIngest() {
	p.t0 = time.Now()
	p.rec.begin(spanIngest)
	if p.emitChild {
		p.n0, p.c0 = p.s.sub.nanos.Load(), p.s.sub.calls.Load()
	}
}

func (p *passRun) endIngest(err error) {
	if p.emitChild {
		p.rec.child(spanOnEmit, p.s.sub.nanos.Load()-p.n0, int(p.s.sub.calls.Load()-p.c0))
	}
	p.rec.end()
	p.res.lat = append(p.res.lat, int64(time.Since(p.t0)))
	p.res.ops++
	p.fail(err)
}

func (p *passRun) pushBatches(arr []repro.Arrival) {
	for lo := 0; lo < len(arr); lo += p.s.w.batch {
		p.beginIngest()
		p.endIngest(p.s.ing.PushBatch(arr[lo:min(lo+p.s.w.batch, len(arr))]))
	}
}

// runPass feeds one pass to the leg's engine and measures it. Input
// preparation happened before; everything between start and the return of
// Sync is the timed region.
func (l *leg) runPass(pass int, in passInput) passResult {
	s, rec := l.sys, l.rec
	if rec != nil {
		rec.pass = int32(pass)
	}
	// A sharded engine's callbacks run on worker goroutines and overlap the
	// ingest call, so they are not its children.
	p := &passRun{s: s, rec: rec, emitChild: rec != nil && s.cfg.shards <= 1}
	p.res.lat = l.lat[:0]
	pos0, neg0 := s.sub.pos.Load(), s.sub.neg.Load()

	// Every pass starts from a collected heap and runs with the collector
	// off. A concurrent collection on a two-CPU box takes a quarter of a
	// pass's throughput at a phase that differs from pass to pass, and most
	// of what it marks is the harness's own materialised input; measured on
	// q6-groupby-col, passes ran at 360k-560k tuples/s with it and at
	// 598k-624k without. What collection costs a user is carried by the two
	// metrics it is a function of, allocs_per_tuple and live_heap_mb.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	rec.begin(spanPass)

	switch s.w.grain {
	case grainCSV:
		var arr []repro.Arrival
		for _, chunk := range in.chunks {
			rec.begin(spanReadCSV)
			recs, err := trace.ReadCSV(bytes.NewReader(chunk))
			rec.end()
			p.fail(err)
			rec.begin(spanConvert)
			arr = arr[:0]
			for _, r := range recs {
				arr = append(arr, repro.Arrival{Stream: r.Link, TS: r.TS, Vals: r.Vals})
			}
			rec.end()
			p.res.records += len(recs)
			p.pushBatches(arr)
		}
	case grainTuple:
		for i := range in.arrivals {
			a := &in.arrivals[i]
			p.beginIngest()
			p.endIngest(s.ing.Push(a.Stream, a.TS, a.Vals...))
		}
		p.res.records = len(in.arrivals)
	case grainBatch:
		half := len(in.arrivals) / 2 / s.w.batch * s.w.batch
		p.pushBatches(in.arrivals[:half])
		if s.reg != nil {
			var cw countingWriter
			rec.begin(spanCheckpoint)
			err := s.reg.Checkpoint(&cw)
			rec.end()
			p.res.ckptBytes = cw.n
			p.res.ops++
			p.fail(err)
		}
		p.pushBatches(in.arrivals[half:])
		p.res.records = len(in.arrivals)
	}

	rec.begin(spanSync)
	err := s.ing.Sync()
	rec.end()
	p.res.wall = time.Since(start)
	rec.end()
	runtime.ReadMemStats(&m1)
	p.res.ops++
	p.fail(err)

	res := p.res
	res.mallocs = m1.Mallocs - m0.Mallocs
	res.emitted = s.sub.pos.Load() - pos0
	res.retracted = s.sub.neg.Load() - neg0
	res.results, err = s.resultCount()
	if err != nil && res.err == nil {
		res.err = err
	}
	res.violations = s.violations()
	l.lat = res.lat
	return res
}

func (l *leg) sig(p passResult) signature {
	if !l.sys.exact {
		return p.answerOnly()
	}
	return p.signature()
}

// record checks a timed pass against the leg's first timed pass and files
// it. A pass whose call failed, whose output differs from the first pass's,
// or that saw a pattern violation has every op counted as failed.
func (l *leg) record(res passResult) error {
	var why error
	switch {
	case res.err != nil:
		why = res.err
	case res.violations != 0:
		why = fmt.Errorf("%d update-pattern violations", res.violations)
	case len(l.passes) > 0 && l.sig(res) != l.sig(l.passes[0]):
		why = fmt.Errorf("output differs between passes: %+v, first pass %+v", l.sig(res), l.sig(l.passes[0]))
	}
	if why != nil {
		l.failed += res.ops
		why = fmt.Errorf("%s pass %d: %w", l.name, len(l.passes)+1, why)
	}
	res.calls = summarize(res.lat)
	res.lat = nil // the buffer is reused by the next pass
	l.passes = append(l.passes, res)
	return why
}

// callSummary is one pass's ingest-call latency distribution, in ns.
type callSummary struct {
	n                  int
	p50, p99, p999, mx int64
	p999ok             bool // at least minBeyond samples lie beyond p99.9
}

func summarize(lat []int64) callSummary {
	s := sortedCopy(lat)
	c := callSummary{n: len(s)}
	if c.n == 0 {
		return c
	}
	c.p50, _ = percentile(s, 50)
	c.p99, _ = percentile(s, 99)
	c.p999, c.p999ok = percentile(s, 99.9)
	c.mx = s[c.n-1]
	return c
}

// setupStages names the parts of a set-up, in order.
var setupStages = []string{"generate", "compile", "oracle", "warm"}

// setupTimes is where one set-up spent its time.
type setupTimes struct {
	stage map[string]time.Duration
	total time.Duration
}

// setUp does everything that precedes pass 1 for one leg: generate the
// trace, build the engine through the facade, check it against the
// Definition-1 oracle, and run the warm-up pass 0 that fills the windows,
// the interner and every lazily built structure.
func setUp(w workload, seed int64, cfg legCfg, rec *recorder, name string) (*leg, *input, setupTimes, error) {
	st := setupTimes{stage: map[string]time.Duration{}}
	t0 := time.Now()
	last := t0
	lap := func(stage string) {
		st.stage[stage] = time.Since(last)
		last = time.Now()
	}
	in := generate(w, seed)
	lap("generate")
	sys, err := build(w, cfg, rec != nil)
	if err != nil {
		return nil, nil, st, err
	}
	lap("compile")
	if err := oracleCheck(w, in); err != nil {
		return nil, nil, st, fmt.Errorf("oracle: %w", err)
	}
	lap("oracle")
	l, err := warm(sys, in, rec, name)
	if err != nil {
		return nil, nil, st, err
	}
	lap("warm")
	st.total = time.Since(t0)
	return l, in, st, nil
}

// warm wraps a built engine in a leg and runs pass 0 through it.
func warm(sys *system, in *input, rec *recorder, name string) (*leg, error) {
	l := &leg{name: name, sys: sys, rec: rec}
	pi, err := in.prepare(sys.w.grain, 0)
	if err != nil {
		return nil, err
	}
	// Pass 0 is never traced: its spans would describe an engine filling up.
	l.rec = nil
	res := l.runPass(0, pi)
	l.rec = rec
	if res.err != nil {
		return nil, fmt.Errorf("%s warm-up: %w", name, res.err)
	}
	if res.violations != 0 {
		return nil, fmt.Errorf("%s warm-up: %d update-pattern violations", name, res.violations)
	}
	return l, nil
}
