package exec

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/operator"
	"repro/internal/tuple"
)

// Row-chain ingest runs in two stages. The window stage, on the caller,
// validates each run, advances the clock, decides the eager and lazy
// passes, expires NT windows and admits arrivals through their windows; it
// touches no operator and records what happened, in order, on the engine's
// run tape. The component stage replays the tape once per connected
// component of the live operator graph: each component feeds the rows to
// its own edges and bare-window views and runs its own maintenance passes.
// Components share nothing but windows and read-only tables, and
// Definition 1 fixes each query's answer from its window states alone, so
// the components of one tape may replay concurrently and no query's output
// sequence changes. The partitions of a partitioned engine are components
// too, each replaying its own share of the rows (deal).

// Tape event kinds.
const (
	// evRows: rows[lo:hi] came out of sources[src] at now.
	evRows uint8 = iota
	// evEager / evLazy: an eager or lazy maintenance pass at now.
	evEager
	evLazy
)

// tapeEvent is one step of the window stage.
type tapeEvent struct {
	kind   uint8
	src    int32 // evRows: the source's slot in Engine.sources
	lo, hi int32 // evRows: the range of runTape.rows
	now    int64 // the clock when the step happened
}

// runTape is the engine's reusable record of the window stage not yet
// replayed: one call's, or on a partitioned engine several PushBatch calls'.
// There (parts > 1) part holds, parallel to rows, the partition each row
// belongs to once the flush has dealt them.
type runTape struct {
	events []tapeEvent
	rows   []tuple.Tuple
	parts  int
	part   []int32
}

// pass records a maintenance pass.
func (t *runTape) pass(kind uint8, now int64) {
	t.events = append(t.events, tapeEvent{kind: kind, now: now})
}

// closeRows records the rows appended since lo as one run out of src.
func (t *runTape) closeRows(src *liveSource, lo int, now int64) {
	if len(t.rows) > lo {
		t.events = append(t.events, tapeEvent{kind: evRows, src: int32(src.slot), lo: int32(lo), hi: int32(len(t.rows)), now: now})
	}
}

// deal assigns the rows of events[lo:hi] to the partitions: a row out of
// source s goes to partition KeyHash64(s.route) % parts. Every row is hashed
// once per flush, not once per partition.
func (t *runTape) deal(lo, hi int, sources []*liveSource) {
	n := uint64(t.parts)
	for _, ev := range t.events[lo:hi] {
		if ev.kind != evRows {
			continue
		}
		route := sources[ev.src].route
		for i := ev.lo; i < ev.hi; i++ {
			t.part[i] = int32(t.rows[i].KeyHash64(route) % n)
		}
	}
}

// dealChunk is how many tape events a worker deals at a time.
const dealChunk = 256

// reset empties the tape after a replay, also one a panic cut short. The
// rows are cleared, so a replayed arrival's values are not pinned until a
// later flush overwrites its slot.
func (t *runTape) reset() {
	clear(t.rows)
	t.rows = t.rows[:0]
	t.events = t.events[:0]
}

// tapeFlushRows bounds the tape: a window stage that has recorded this many
// rows is replayed before it goes on, so a huge PushBatch does not hold its
// whole stamped input at once. It is also how many rows a partitioned
// engine's PushBatch calls stamp before one of them replays (Engine.ingest).
const tapeFlushRows = 4096

// flow is the context a run travels the operator graph in: the logical time
// of the step being replayed, and the output deltas and view expirations
// applied so far, which settle adds to the engine-wide counters once per
// flush instead of once per delta.
type flow struct {
	e           *Engine
	now         int64
	pos, neg    int64
	viewExpired int64
	// emits are the output buffers of the nested feedBatch calls, by depth.
	emits []*operator.Emit
	depth int
	// clk picks the operator runs a timed engine times. A flow is never
	// shared between replay workers, so neither is its sampler.
	clk procSampler
}

// procSample is the operator-timing sampling rate: a timed engine times a
// random one in procSample operator runs and charges each timed run
// procSample times its duration. Each run is taken independently with
// probability 1/procSample, so for any sequence of run costs the expected
// charge is the true total (a Horvitz–Thompson estimate), and a node with
// n runs reads it with a relative error of about √(procSample/n).
const procSample = 16

// procSampler draws the independent 1-in-procSample choices: the top four
// bits of an xorshift64 generator with a fixed seed, so a replay is
// reproducible. The zero value is ready to use.
type procSampler struct{ x uint64 }

// take reports whether the next operator run is timed.
func (s *procSampler) take() bool {
	x := s.x
	if x == 0 {
		x = 0x9e3779b97f4a7c15
	}
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	s.x = x
	return x>>60 == 0
}

// startRun returns the clock reading an operator run starts at when the
// flow times it, and 0 when it does not: always on an untimed engine, and
// for all but a random one run in procSample on a timed one. It and
// chargeRun inline to one branch each on an untimed engine.
func (f *flow) startRun() int64 {
	if f.e.timed {
		return f.clk.start()
	}
	return 0
}

// start draws whether the next run is timed and reads the clock if it is.
func (s *procSampler) start() int64 {
	if s.take() {
		return obs.Nanotime()
	}
	return 0
}

// chargeRun charges node for a run that started at start, if it was timed.
func chargeRun(node *liveNode, start int64) {
	if start != 0 {
		node.chargeSampled(start)
	}
}

// chargeSampled adds procSample times the duration of a timed run that
// started at start to the node's processing time.
func (st *opStats) chargeSampled(start int64) {
	st.procNanos.Add(procSample * (obs.Nanotime() - start))
}

// component is one connected component of the live operator graph: nodes
// that feed one another, and the queries rooted in them. A bare-window query
// is a component of its own.
type component struct {
	flow
	// part is the partition the component computes on a partitioned engine,
	// the only one whose rows it replays; -1 replays every row. rows stages
	// its rows of an event that holds other partitions' rows too.
	part int
	rows []tuple.Tuple
	// eager and lazy are the component's nodes by maintenance pass,
	// children-first.
	eager, lazy []*liveNode
	queries     []*queryUnit
	// fan is, per source slot, the part of the source's fan-out inside the
	// component.
	fan []srcFan
	// weight orders components heaviest-first for the workers: nodes plus
	// views.
	weight int
	// err is the component's first replay error and errAt the index of the
	// event that raised it.
	err   error
	errAt int
}

// srcFan is one source's consumer edges and bare-window views.
type srcFan struct {
	outs  []outEdge
	sinks []*queryUnit
}

// rebuildComponents re-partitions the live dataflow into components. Two
// nodes are connected when one feeds the other. Nodes that probe one
// relation table are not: a probe writes nothing (relation.Table.Probe), and
// table updates run on the caller, outside any replay. Runs on every
// registration change, so it also decides which projections borrow their
// input's values (feedsOnlyDedup).
func (e *Engine) rebuildComponents() {
	for i, s := range e.sources {
		s.slot = i
	}
	for i, n := range e.nodes {
		n.slot = i
		if p, ok := n.op.(*operator.Project); ok {
			p.SetBorrow(feedsOnlyDedup(n))
		}
	}
	parent := make([]int, len(e.nodes))
	for i := range parent {
		parent[i] = i
	}
	var find func(i int) int
	find = func(i int) int {
		if parent[i] != i {
			parent[i] = find(parent[i])
		}
		return parent[i]
	}
	union := func(a, b int) { parent[find(a)] = find(b) }
	for _, n := range e.nodes {
		for _, ed := range n.outs {
			union(n.slot, ed.node.slot)
		}
	}
	e.comps = e.comps[:0]
	newComp := func() *component {
		c := &component{flow: flow{e: e}, part: -1, fan: make([]srcFan, len(e.sources))}
		e.comps = append(e.comps, c)
		return c
	}
	// e.nodes is children-first (records append in post-order per
	// registration, and shared prefixes were appended by earlier ones), so
	// each component's pass lists are too.
	compOf := make([]*component, len(e.nodes))
	for _, n := range e.nodes {
		r := find(n.slot)
		if compOf[r] == nil {
			compOf[r] = newComp()
		}
		c := compOf[r]
		compOf[n.slot] = c
		if n.eager {
			c.eager = append(c.eager, n)
		} else {
			c.lazy = append(c.lazy, n)
		}
		c.weight++
	}
	qcomp := make(map[*queryUnit]*component, len(e.queries))
	for _, q := range e.queries {
		var c *component
		if q.phys.Root != nil {
			c = compOf[q.nodes[0].slot]
		} else {
			c = newComp()
		}
		c.queries = append(c.queries, q)
		c.weight++
		qcomp[q] = c
		if e.parts > 1 {
			c.part = q.part
		}
	}
	for _, s := range e.sources {
		for _, ed := range s.outs {
			f := &compOf[ed.node.slot].fan[s.slot]
			f.outs = append(f.outs, ed)
		}
		for _, q := range s.sinks {
			f := &qcomp[q].fan[s.slot]
			f.sinks = append(f.sinks, q)
		}
	}
	slices.SortStableFunc(e.comps, func(a, b *component) int { return b.weight - a.weight })
}

// feedsOnlyDedup reports whether every consumer of n's emissions is a
// duplicate eliminator: n has out-edges, all of them into δ or Distinct
// nodes, and no query is rooted at it. Both copy the values they keep, so a
// projection there may emit borrowed ones.
func feedsOnlyDedup(n *liveNode) bool {
	if len(n.sinks) > 0 || len(n.outs) == 0 {
		return false
	}
	for _, ed := range n.outs {
		switch ed.node.op.(type) {
		case *operator.DistinctDelta, *operator.Distinct:
		default:
			return false
		}
	}
	return true
}

// flush replays the tape and empties it, takes a state sample the replay was
// due, then settles the flows' counts and publishes the watermark the
// replayed passes certify (also when a subscriber's panic unwinds through
// it). It returns the first replay error in tape order.
func (e *Engine) flush(batched bool) error {
	defer func() {
		e.tape.reset()
		e.settle()
	}()
	if len(e.tape.events) == 0 {
		return nil
	}
	if e.parts > 1 {
		e.tape.part = slices.Grow(e.tape.part[:0], len(e.tape.rows))[:len(e.tape.rows)]
	}
	if e.sharesReplay(batched) {
		e.replayParallel()
	} else {
		if e.parts > 1 {
			e.tape.deal(0, len(e.tape.events), e.sources)
		}
		for _, c := range e.comps {
			c.replay(&e.tape)
		}
	}
	if e.sampleDue {
		e.sampleState()
	}
	var err error
	at := len(e.tape.events)
	for _, c := range e.comps {
		if c.err != nil && c.errAt < at {
			err, at = c.err, c.errAt
		}
	}
	return err
}

// sharesReplay reports whether a flush shares its replay among workers: only
// a PushBatch (batched) on the row chain of an engine with several
// components, and only when there is more than one processor. Push,
// Advance, Sync, table updates, columnar engines and single unpartitioned
// queries replay on the caller.
func (e *Engine) sharesReplay(batched bool) bool {
	return batched && !e.colOK && len(e.comps) > 1 && runtime.GOMAXPROCS(0) > 1
}

// settle adds every flow's accumulated output counts to the engine-wide
// counters and the pending latency counts, and moves the watermark to the
// passes replayed. It runs at the end of every flush, once the tape is
// empty, and after work on the direct flow, so the engine-wide counters lag
// the per-query ones by at most one flush.
func (e *Engine) settle() {
	e.settleFlow(&e.direct)
	for _, c := range e.comps {
		e.settleFlow(&c.flow)
	}
	e.mark = min(e.lastEager, e.lastLazy)
	e.met.watermark.Set(e.mark)
}

func (e *Engine) settleFlow(f *flow) {
	if f.pos > 0 {
		e.deltaPos += f.pos
		e.met.emitted.Add(f.pos)
		f.pos = 0
	}
	if f.neg > 0 {
		e.deltaNeg += f.neg
		e.met.retracted.Add(f.neg)
		f.neg = 0
	}
	if f.viewExpired > 0 {
		e.met.viewExpired.Add(f.viewExpired)
		f.viewExpired = 0
	}
}

// replayParallel shares the tape's components among min(GOMAXPROCS,
// components) workers, the caller being one; each takes the heaviest
// component left. It returns when every worker has finished, so no
// goroutine outlives the call. A panic on any worker is re-raised here,
// after the join, with its original value.
func (e *Engine) replayParallel() {
	workers := min(runtime.GOMAXPROCS(0), len(e.comps))
	e.work.next.Store(0)
	e.work.dealNext.Store(0)
	e.work.dealt.Store(0)
	if e.work.helper == nil {
		e.work.helper = func() {
			defer e.work.wg.Done()
			e.replayWorker()
		}
	}
	e.work.wg.Add(workers - 1)
	for i := 1; i < workers; i++ {
		go e.work.helper()
	}
	e.replayWorker()
	if e.joinWait != nil && e.timed {
		t0 := obs.Nanotime()
		e.work.wg.Wait()
		e.joinWait.Add(obs.Nanotime() - t0)
	} else {
		e.work.wg.Wait()
	}
	if e.work.panicked.Load() {
		v := e.work.panicVal
		e.work.panicked.Store(false)
		e.work.panicVal = nil
		panic(v)
	}
}

// workers is the parallel replay's shared state. panicVal is written only
// by the worker that set panicked, and read after the join. helper is the
// body each extra worker runs, built once: a go statement on a closure or a
// method value allocates the closure at every start, one on a stored func
// value does not.
type workers struct {
	next     atomic.Int32
	wg       sync.WaitGroup
	panicked atomic.Bool
	panicVal any
	helper   func()
	// dealNext is the first tape event no worker has claimed to deal yet,
	// dealt the number of events dealt (partitioned engines).
	dealNext, dealt atomic.Int32
}

// replayWorker replays components until none is left, recording the first
// panic instead of unwinding past the join. On a partitioned engine the
// workers first deal the tape's rows to the partitions together, chunk by
// chunk, and replay only once every row is dealt.
func (e *Engine) replayWorker() {
	w := &e.work
	dealing := 0
	defer func() {
		if r := recover(); r != nil {
			if w.panicked.CompareAndSwap(false, true) {
				w.panicVal = r
			}
			// A chunk a panic cut short counts as dealt, so no worker waits
			// for it; the caller re-raises the panic after the join.
			w.dealt.Add(int32(dealing))
		}
	}()
	if e.parts > 1 {
		n := len(e.tape.events)
		for {
			lo := int(w.dealNext.Add(dealChunk)) - dealChunk
			if lo >= n {
				break
			}
			hi := min(lo+dealChunk, n)
			dealing = hi - lo
			e.tape.deal(lo, hi, e.sources)
			dealing = 0
			w.dealt.Add(int32(hi - lo))
		}
		// Spin rather than park: the other workers are mid-chunk.
		for spin := 1; int(w.dealt.Load()) < n; spin++ {
			if spin%1024 == 0 {
				runtime.Gosched()
			}
		}
		if w.panicked.Load() {
			return
		}
	}
	for {
		i := int(e.work.next.Add(1)) - 1
		if i >= len(e.comps) {
			return
		}
		e.comps[i].replay(&e.tape)
	}
}

// replay runs the tape through the component, stopping at its first error.
func (c *component) replay(t *runTape) {
	c.err, c.depth = nil, 0
	defer c.unstage()
	for i := range t.events {
		ev := &t.events[i]
		c.now = ev.now
		var err error
		switch ev.kind {
		case evRows:
			fan := &c.fan[ev.src]
			rows := t.rows[ev.lo:ev.hi]
			if c.part >= 0 {
				if rows = c.own(t, ev); len(rows) == 0 {
					continue
				}
			}
			for _, q := range fan.sinks {
				for _, r := range rows {
					c.applyResult(q, r)
				}
			}
			for _, ed := range fan.outs {
				if err = c.feedBatch(ed.node, ed.side, rows); err != nil {
					break
				}
			}
		case evEager:
			err = c.expireNodes(c.eager)
		case evLazy:
			if err = c.expireNodes(c.lazy); err == nil {
				for _, q := range c.queries {
					c.viewExpired += int64(q.view.ExpireUpTo(c.now))
				}
			}
		}
		if err != nil {
			c.err, c.errAt = err, i
			return
		}
	}
}

// own returns the component's partition's rows of a row event, in tape
// order: the event's own slice when they are all of them, as a run of one
// arrival always is, and a copy staged in c.rows otherwise.
func (c *component) own(t *runTape, ev *tapeEvent) []tuple.Tuple {
	p := int32(c.part)
	part := t.part[ev.lo:ev.hi]
	n := 0
	for _, q := range part {
		if q == p {
			n++
		}
	}
	switch n {
	case 0:
		return nil
	case len(part):
		return t.rows[ev.lo:ev.hi]
	}
	c.unstage()
	for i, q := range part {
		if q == p {
			c.rows = append(c.rows, t.rows[int(ev.lo)+i])
		}
	}
	return c.rows
}

// unstage clears the rows own staged, so the scratch pins no arrival.
func (c *component) unstage() {
	clear(c.rows)
	c.rows = c.rows[:0]
}

// expireNodes moves each node's local clock to the flow's time and sends
// what its expirations emit down the plan, one run per node. Each Advance
// is an operator run: a timed one goes to the node's processing-time
// counter, beside its ProcessBatch time, so expiry shows up under the
// operator that pays for it; what its outputs cost downstream is charged
// where they land.
func (f *flow) expireNodes(nodes []*liveNode) error {
	for _, n := range nodes {
		start := f.startRun()
		outs, err := n.op.Advance(f.now)
		chargeRun(n, start)
		if err != nil {
			return err
		}
		if len(outs) == 0 {
			continue
		}
		n.expired.Add(int64(len(outs)))
		if err := f.propagateBatch(n, outs); err != nil {
			return err
		}
	}
	return nil
}

// feedBatch processes a same-side run at node and pushes the accumulated
// emissions toward the root as one run. This is the one place operator input
// counters and processing wall time are charged on the row chain: polarity
// counters take two atomic adds per run, and the clock is read only for the
// runs a timed engine samples (startRun). The flow reuses one Emit buffer per
// depth of the recursion, so steady-state execution allocates no output
// slices.
func (f *flow) feedBatch(node *liveNode, side int, in []tuple.Tuple) error {
	var pos, neg int64
	for i := range in {
		if in[i].Neg {
			neg++
		} else {
			pos++
		}
	}
	if pos > 0 {
		node.inPos.Add(pos)
	}
	if neg > 0 {
		node.inNeg.Add(neg)
	}
	if f.depth == len(f.emits) {
		f.emits = append(f.emits, &operator.Emit{})
	}
	out := f.emits[f.depth]
	f.depth++
	start := f.startRun()
	err := node.op.ProcessBatch(side, in, f.now, out)
	chargeRun(node, start)
	if err == nil {
		err = f.propagateBatch(node, out.Tuples())
	}
	f.depth--
	out.Reset()
	return err
}

// propagateBatch forwards a run of emissions originating at node — from
// ProcessBatch, from an expiration pass, or from a table update — to its
// consumer edges (and into the views of queries rooted here), charging the
// node's output counters and the conformance monitor. Relative emission order
// is preserved per consumer, so each operator up every spine sees exactly the
// sequence a standalone engine would deliver; operators never retain their
// input run, so one slice can feed every edge in turn.
func (f *flow) propagateBatch(node *liveNode, outs []tuple.Tuple) error {
	if len(outs) == 0 {
		return nil
	}
	var pos, neg int64
	for i := range outs {
		if outs[i].Neg {
			neg++
			node.observeRetraction(outs[i], f.now)
		} else {
			pos++
		}
	}
	if pos > 0 {
		node.pos.Add(pos)
	}
	if neg > 0 {
		node.neg.Add(neg)
	}
	for _, q := range node.sinks {
		for _, t := range outs {
			f.applyResult(q, t)
		}
	}
	for _, ed := range node.outs {
		if err := f.feedBatch(ed.node, ed.side, outs); err != nil {
			return err
		}
	}
	return nil
}

// applyResult folds one output delta into q's view. The engine-wide counts
// accumulate on the flow; per-query counters exist only for named registry
// queries (an unnamed single query keeps the legacy series shape) and fire
// per delivery.
func (f *flow) applyResult(q *queryUnit, t tuple.Tuple) {
	if t.Neg {
		f.neg++
		q.deltaNeg++
		if q.retracted != nil {
			q.retracted.Inc()
		}
	} else {
		f.pos++
		q.deltaPos++
		if q.emitted != nil {
			q.emitted.Inc()
		}
	}
	if q.onEmit != nil {
		q.onEmit(t)
	}
	q.view.Apply(t)
}
