// Package replay re-runs single layers of the engine — state buffers, the
// window, ColBatch construction, the view fold, the checkpoint codec — in
// isolation, driven by what a real pass of a benchmark workload fed them:
// its arrivals, its run lengths, its key distribution and its captured
// delta stream. The result is a cost per operation that can be set beside
// the time the traced pass attributes to the same layer.
package replay

import (
	"bytes"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/statebuf"
	"repro/internal/tuple"
	"repro/internal/window"
)

// Timing is a number of operations and the wall time they took together.
type Timing struct {
	Ops   int
	Nanos int64
}

// PerOp is the mean cost of one operation in nanoseconds (0 with no ops).
func (t Timing) PerOp() float64 {
	if t.Ops == 0 {
		return 0
	}
	return float64(t.Nanos) / float64(t.Ops)
}

// Plus is the two timings taken together.
func (t Timing) Plus(o Timing) Timing { return Timing{t.Ops + o.Ops, t.Nanos + o.Nanos} }

func (t *Timing) add(ops int, since time.Time) {
	t.Ops += ops
	t.Nanos += int64(time.Since(since))
}

// chunk is how many operations are timed together: one clock read costs
// about as much as one of the operations measured here.
const chunk = 256

// Run is a maximal same-(stream, timestamp) run inside one ingest call —
// the unit the engine lays out column-major and stamps at once.
type Run struct {
	Stream int
	TS     int64
	Rows   [][]tuple.Value
}

// Runs splits a pass's arrivals into the runs the engine forms: PushBatch
// calls of batch arrivals, each split at every stream or timestamp change.
func Runs(arrivals []exec.Arrival, batch int) []Run {
	var runs []Run
	for lo := 0; lo < len(arrivals); lo += batch {
		b := arrivals[lo:min(lo+batch, len(arrivals))]
		for i := 0; i < len(b); {
			j := i + 1
			for j < len(b) && b[j].Stream == b[i].Stream && b[j].TS == b[i].TS {
				j++
			}
			r := Run{Stream: b[i].Stream, TS: b[i].TS}
			for _, a := range b[i:j] {
				r.Rows = append(r.Rows, a.Vals)
			}
			runs = append(runs, r)
			i = j
		}
	}
	return runs
}

// ColBuild lays every run out as a ColBatch the way the columnar ingest path
// does: Reset, then AppendRun against one interner that lives as long as the
// engine's. Ops counts rows.
func ColBuild(schema *tuple.Schema, runs []Run) Timing {
	cb := tuple.NewColBatch(schema)
	in := tuple.NewInterner()
	var t Timing
	for lo := 0; lo < len(runs); lo += chunk {
		rows := 0
		t0 := time.Now()
		for _, r := range runs[lo:min(lo+chunk, len(runs))] {
			cb.Reset()
			cb.AppendRun(r.TS, 0, r.Rows, in)
			rows += len(r.Rows)
		}
		t.add(rows, t0)
	}
	return t
}

// Window admits one stream's runs into a window of the given spec and
// expires it at every timestamp change. Columnar admission is StampRun (one
// call per run); row admission is Arrive (one call per tuple). Ops counts
// tuples for both timings, so the two are per-tuple costs.
func Window(spec window.Spec, materialize, columnar bool, runs []Run) (admit, expire Timing, err error) {
	w, err := window.New(spec, materialize)
	if err != nil {
		return admit, expire, err
	}
	for lo := 0; lo < len(runs); lo += chunk {
		part := runs[lo:min(lo+chunk, len(runs))]
		rows := 0
		t0 := time.Now()
		for _, r := range part {
			if columnar {
				if _, err = w.StampRun(r.TS, len(r.Rows)); err != nil {
					return admit, expire, err
				}
			} else {
				for _, vals := range r.Rows {
					if _, _, err = w.Arrive(tuple.New(r.TS, vals...)); err != nil {
						return admit, expire, err
					}
				}
			}
			rows += len(r.Rows)
		}
		admit.add(rows, t0)
		t1 := time.Now()
		for _, r := range part {
			w.ExpireUpTo(r.TS)
		}
		expire.add(rows, t1)
	}
	return admit, expire, nil
}

// Kinds lists the state-buffer kinds in report order, with the names the
// metrics use.
var Kinds = []struct {
	Name string
	Kind statebuf.Kind
}{
	{"fifo", statebuf.KindFIFO},
	{"list", statebuf.KindList},
	{"hash", statebuf.KindHash},
	{"indexedfifo", statebuf.KindIndexedFIFO},
	{"partitioned", statebuf.KindPartitioned},
}

// probesPerChunk keeps the scan-probed kinds (fifo, list, partitioned: a
// probe visits the whole state) affordable.
const probesPerChunk = 2

// Statebuf drives one buffer kind with a stream's tuples: every tuple is
// inserted with Exp = TS + horizon, the buffer is expired at the end of
// every chunk, and a sample of the chunk's own keys is probed the way a join
// probes its opposite state. The first horizon of tuples fills the buffer
// untimed, so the costs are those of a full window. Insert ops are tuples,
// probe ops are probes, expire ops are expired tuples.
func Statebuf(kind statebuf.Kind, keyCols []int, horizon int64, tuples []tuple.Tuple) (insert, probe, expire Timing) {
	buf := statebuf.New(statebuf.Config{Kind: kind, KeyCols: keyCols, Horizon: horizon})
	if len(tuples) == 0 {
		return
	}
	full := tuples[0].TS + horizon
	var matches []tuple.Tuple
	for lo := 0; lo < len(tuples); lo += chunk {
		part := tuples[lo:min(lo+chunk, len(tuples))]
		now := part[len(part)-1].TS
		timed := part[0].TS >= full

		t0 := time.Now()
		for _, t := range part {
			buf.Insert(t.WithExp(t.TS + horizon))
		}
		if timed {
			insert.add(len(part), t0)
		}

		t1 := time.Now()
		n := len(buf.ExpireUpTo(now))
		if timed {
			expire.add(n, t1)
		}

		t2 := time.Now()
		for _, t := range part[:min(probesPerChunk, len(part))] {
			matches = probeBuf(buf, keyCols, t.Key(keyCols), now, matches[:0])
		}
		if timed {
			probe.add(min(probesPerChunk, len(part)), t2)
		}
	}
	return insert, probe, expire
}

// probeBuf finds the live tuples stored under k: by index where the buffer
// has one, by a filtered scan otherwise — the same two routes a join takes.
func probeBuf(buf statebuf.Buffer, keyCols []int, k tuple.Key, now int64, dst []tuple.Tuple) []tuple.Tuple {
	if pa, ok := buf.(statebuf.ProbeAppender); ok {
		return pa.ProbeAppend(k, now, dst)
	}
	buf.Scan(func(t tuple.Tuple) bool {
		if !t.Expired(now) && t.KeyMatches(keyCols, k) {
			dst = append(dst, t)
		}
		return true
	})
	return dst
}

// ViewFold builds the view a physical plan configures, primes it (untimed)
// with the rows the real view held when the capture began, and folds the
// captured delta stream into it, expiring the view as the deltas' timestamps
// advance so that it stays the size the real one was. Ops counts deltas.
func ViewFold(cfg plan.ViewConfig, prime, deltas []tuple.Tuple) (Timing, error) {
	var t Timing
	v, err := exec.NewView(cfg)
	if err != nil {
		return t, err
	}
	for _, row := range prime {
		v.Apply(row)
	}
	for lo := 0; lo < len(deltas); lo += chunk {
		part := deltas[lo:min(lo+chunk, len(deltas))]
		t0 := time.Now()
		for _, d := range part {
			v.Apply(d)
		}
		v.ExpireUpTo(part[len(part)-1].TS)
		t.add(len(part), t0)
	}
	return t, nil
}

// Checkpoint encodes rows with the checkpoint codec and decodes them back.
// Ops counts rows; size is the encoded length in bytes.
func Checkpoint(rows []tuple.Tuple) (enc, dec Timing, size int64, err error) {
	var buf bytes.Buffer
	t0 := time.Now()
	e := checkpoint.NewEncoder(&buf)
	e.Begin()
	e.Tuples(rows)
	if err = e.Err(); err != nil {
		return enc, dec, 0, err
	}
	enc.add(len(rows), t0)
	size = int64(buf.Len())

	t1 := time.Now()
	d := checkpoint.NewDecoder(&buf)
	d.Begin()
	got := d.Tuples()
	if err = d.Err(); err != nil {
		return enc, dec, size, err
	}
	dec.add(len(got), t1)
	return enc, dec, size, nil
}
