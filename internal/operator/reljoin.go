package operator

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/statebuf"
	"repro/internal/tuple"
)

// TableOperator is implemented by operators that consume a relation or NRR
// and must observe its updates; the executor routes table mutations here.
type TableOperator interface {
	Operator
	// Table returns the table the operator reads.
	Table() *relation.Table
	// ApplyTableUpdate reacts to one table mutation at time now.
	ApplyTableUpdate(u relation.Update, now int64) ([]tuple.Tuple, error)
}

// NRRJoin joins a stream or window with a non-retroactive relation
// (Section 4.1, ⋈NRR). Because NRR updates only affect stream tuples that
// arrive later, the operator never stores its streaming input and never
// reacts to table updates: each stream arrival probes the table's current
// state and the results inherit the stream tuple's expiration. Its output
// therefore preserves the input's update pattern (Rule 1) — monotonic over a
// raw stream, weakest non-monotonic over a window.
//
// Under the negative-tuple strategy the operator must retract results for
// expiring stream tuples even though the table may have changed since they
// joined; it therefore keeps a log of the results each stream tuple produced
// (only in that mode does any state accrue).
type NRRJoin struct {
	tableProbe
	// emitted logs results per stream tuple for NT-mode retraction (empty
	// unless logAll).
	emitted statebuf.Table[[]emitRecord]
	logAll  bool
	size    int
}

type emitRecord struct {
	exp     int64
	results []tuple.Tuple
}

// NRRJoinConfig configures a ⋈NRR operator.
type NRRJoinConfig struct {
	Stream *tuple.Schema
	Table  *relation.Table
	// StreamCols/TableCols are the equijoin positions, pairwise.
	StreamCols, TableCols []int
	// LogResults enables the NT-mode retraction log. The direct strategies
	// leave it off, keeping the operator stateless as Section 4.1 promises.
	LogResults bool
}

// NewNRRJoin builds a ⋈NRR operator.
func NewNRRJoin(cfg NRRJoinConfig) (*NRRJoin, error) {
	if cfg.Table.Retroactive() {
		return nil, fmt.Errorf("nrr-join: table %s is retroactive; use RelJoin", cfg.Table.Name())
	}
	p, err := newTableProbe("nrr-join", cfg.Stream, cfg.Table, cfg.StreamCols, cfg.TableCols)
	if err != nil {
		return nil, err
	}
	return &NRRJoin{tableProbe: p, logAll: cfg.LogResults}, nil
}

// tableProbe is what both table joins share: the output schema, the table,
// the index the join asked for at construction, the equijoin columns, and a
// scratch slice of matching rows reused across probes.
type tableProbe struct {
	schema     *tuple.Schema
	table      *relation.Table
	index      int
	streamCols []int
	tableCols  []int
	rows       [][]tuple.Value
	touched    int64
}

func newTableProbe(op string, stream *tuple.Schema, tbl *relation.Table, streamCols, tableCols []int) (tableProbe, error) {
	if err := checkJoinCols(op, stream, tbl.Schema(), streamCols, tableCols); err != nil {
		return tableProbe{}, err
	}
	return tableProbe{
		schema:     stream.Concat(tbl.Schema()),
		table:      tbl,
		index:      tbl.EnsureIndex(tableCols),
		streamCols: append([]int(nil), streamCols...),
		tableCols:  append([]int(nil), tableCols...),
	}, nil
}

// Schema implements Operator.
func (p *tableProbe) Schema() *tuple.Schema { return p.schema }

// Table implements TableOperator.
func (p *tableProbe) Table() *relation.Table { return p.table }

// join appends t joined with every matching table row, in insertion order and
// in t's polarity. A row never expires, so each result expires with t.
func (p *tableProbe) join(t tuple.Tuple, now int64, out *Emit) {
	p.rows = p.table.Probe(p.index, t, p.streamCols, p.rows[:0])
	for _, vals := range p.rows {
		p.touched++
		r := t.Concat(tuple.Tuple{TS: t.TS, Exp: tuple.NeverExpires, Vals: vals}, now)
		r.Neg = t.Neg
		out.Append(r)
	}
}

func checkJoinCols(op string, left, right *tuple.Schema, lc, rc []int) error {
	if len(lc) == 0 || len(lc) != len(rc) {
		return fmt.Errorf("%s: key columns must be non-empty and pairwise", op)
	}
	for _, c := range lc {
		if c < 0 || c >= left.Len() {
			return fmt.Errorf("%s: left key column %d out of range", op, c)
		}
	}
	for _, c := range rc {
		if c < 0 || c >= right.Len() {
			return fmt.Errorf("%s: right key column %d out of range", op, c)
		}
	}
	return nil
}

// Class implements Operator.
func (j *NRRJoin) Class() core.OpClass { return core.OpNRRJoin }

// ProcessBatch implements Operator.
func (j *NRRJoin) ProcessBatch(side int, in []tuple.Tuple, now int64, out *Emit) error {
	if side != 0 {
		return badSide("nrr-join", side)
	}
	for _, t := range in {
		if t.Neg {
			j.processNegative(t, now, out)
			continue
		}
		first := out.Len()
		// NRR deletions never retract: a result lives as long as its stream
		// tuple, regardless of the row's fate (Definition 2).
		j.join(t, now, out)
		if j.logAll && out.Len() > first {
			// The log outlives the call; out's backing array does not.
			results := append([]tuple.Tuple(nil), out.ts[first:]...)
			ref, _ := j.emitted.UpsertRow(t, j.streamCols)
			recs := j.emitted.At(ref)
			*recs = append(*recs, emitRecord{exp: t.Exp, results: results})
			j.size += len(results)
		}
	}
	return nil
}

func (j *NRRJoin) processNegative(t tuple.Tuple, now int64, out *Emit) {
	if !j.logAll {
		// Direct strategies: results expire via exp; nothing to do.
		return
	}
	ref := j.emitted.FindRow(t, j.streamCols)
	if ref == 0 {
		return
	}
	recs := *j.emitted.At(ref)
	// Retract only the record matching the expiring tuple's expiration —
	// a value twin that produced no results has no record, and guessing
	// would retract someone else's results.
	at := -1
	for i, r := range recs {
		if r.exp == t.Exp {
			at = i
			break
		}
	}
	if at < 0 {
		return
	}
	rec := recs[at]
	if len(recs) == 1 {
		j.emitted.Delete(ref)
	} else {
		*j.emitted.At(ref) = append(recs[:at], recs[at+1:]...)
	}
	j.size -= len(rec.results)
	for _, r := range rec.results {
		out.Append(r.Negative(now))
	}
}

// ApplyTableUpdate implements TableOperator: NRR updates are non-retroactive
// and produce nothing.
func (j *NRRJoin) ApplyTableUpdate(relation.Update, int64) ([]tuple.Tuple, error) {
	return nil, nil
}

// Advance implements Operator (nothing to expire; the NT log shrinks on
// retractions).
func (j *NRRJoin) Advance(int64) ([]tuple.Tuple, error) { return nil, nil }

// StateSize implements Operator: zero in direct mode (Section 4.1's "the
// streaming input does not have to be stored"); the retraction log otherwise.
func (j *NRRJoin) StateSize() int { return j.size }

// Touched implements Operator.
func (j *NRRJoin) Touched() int64 { return j.touched }

// RelJoin joins a window with a traditional, retroactive relation (⋈R).
// Per Section 4.1, retroactivity makes it strict non-monotonic: a table
// insertion joins against the stored window state, and a table deletion
// retracts previously reported results with negative tuples. The window side
// must therefore be stored.
type RelJoin struct {
	tableProbe
	state      statebuf.Buffer
	clock      int64
	timeExpiry bool
}

// RelJoinConfig configures a ⋈R operator.
type RelJoinConfig struct {
	Stream *tuple.Schema
	Table  *relation.Table
	// StreamCols/TableCols are the equijoin positions, pairwise.
	StreamCols, TableCols []int
	// StreamBuf chooses the window-side state structure.
	StreamBuf statebuf.Config
	// NoTimeExpiry marks negative-tuple-strategy state: tuples stay
	// probe-visible until explicitly retracted, and Advance never trims.
	NoTimeExpiry bool
}

// NewRelJoin builds a ⋈R operator.
func NewRelJoin(cfg RelJoinConfig) (*RelJoin, error) {
	p, err := newTableProbe("rel-join", cfg.Stream, cfg.Table, cfg.StreamCols, cfg.TableCols)
	if err != nil {
		return nil, err
	}
	if cfg.StreamBuf.Kind == statebuf.KindHash {
		cfg.StreamBuf.KeyCols = cfg.StreamCols
	}
	return &RelJoin{
		tableProbe: p,
		state:      statebuf.New(cfg.StreamBuf),
		clock:      -1,
		timeExpiry: !cfg.NoTimeExpiry,
	}, nil
}

// Class implements Operator.
func (j *RelJoin) Class() core.OpClass { return core.OpRelJoin }

// ProcessBatch implements Operator.
func (j *RelJoin) ProcessBatch(side int, in []tuple.Tuple, now int64, out *Emit) error {
	if side != 0 {
		return badSide("rel-join", side)
	}
	if now > j.clock {
		j.clock = now
	}
	for _, t := range in {
		if t.Neg {
			if !j.state.Remove(t) {
				continue
			}
		} else {
			j.state.Insert(t)
		}
		j.join(t, now, out)
	}
	return nil
}

// ApplyTableUpdate implements TableOperator: insertions join against the
// stored window; deletions retract previously reported results.
func (j *RelJoin) ApplyTableUpdate(u relation.Update, now int64) ([]tuple.Tuple, error) {
	if now > j.clock {
		j.clock = now
	}
	rowT := tuple.Tuple{TS: u.TS, Exp: tuple.NeverExpires, Vals: u.Row}
	k := rowT.Key(j.tableCols)
	probeAt := j.clock
	if !j.timeExpiry {
		probeAt = noExpiry
	}
	var out []tuple.Tuple
	for _, s := range probeAppend(j.state, j.streamCols, k, probeAt, nil) {
		j.touched++
		r := s.Concat(rowT, now)
		r.Exp = s.Exp
		r.Neg = u.Kind == relation.Delete
		out = append(out, r)
	}
	return out, nil
}

// Advance lazily trims expired window state.
func (j *RelJoin) Advance(now int64) ([]tuple.Tuple, error) {
	if now > j.clock {
		j.clock = now
	}
	if j.timeExpiry {
		j.state.ExpireUpTo(j.clock)
	}
	return nil, nil
}

// StateSize implements Operator.
func (j *RelJoin) StateSize() int { return j.state.Len() }

// Touched implements Operator.
func (j *RelJoin) Touched() int64 { return j.touched + j.state.Touched() }
