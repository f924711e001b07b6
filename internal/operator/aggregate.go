package operator

import (
	"fmt"

	"repro/internal/tuple"
)

// AggKind enumerates the supported aggregate functions.
type AggKind int

const (
	// Count counts tuples in the group (the column is ignored).
	Count AggKind = iota
	// Sum sums a numeric column.
	Sum
	// Avg averages a numeric column.
	Avg
	// Min tracks the minimum of a column.
	Min
	// Max tracks the maximum of a column.
	Max
)

// String names the aggregate as in SQL.
func (k AggKind) String() string {
	switch k {
	case Count:
		return "COUNT"
	case Sum:
		return "SUM"
	case Avg:
		return "AVG"
	case Min:
		return "MIN"
	case Max:
		return "MAX"
	default:
		return fmt.Sprintf("AGG(%d)", int(k))
	}
}

// AggSpec is one aggregate over one input column.
type AggSpec struct {
	Kind AggKind
	Col  int // ignored for Count
}

// String renders the spec, e.g. "SUM($3)".
func (s AggSpec) String() string { return fmt.Sprintf("%s($%d)", s.Kind, s.Col) }

// aggState incrementally maintains one aggregate for one group. SUM, COUNT
// and AVG are distributive/algebraic: arrivals add and expirations subtract
// in constant time (the paper's footnote 2). MIN and MAX keep a multiset of
// live values so the extreme can be re-derived when its last copy expires.
// The multiset is keyed by Value.Canonical, so Equal values share one entry:
// every NaN leaves with its last copy, and 1 and 1.0 (or +0 and -0) count
// together and report the first one seen.
type aggState struct {
	spec  AggSpec
	n     int64
	sum   float64
	multi map[tuple.Value]liveValue // Min/Max only
}

// liveValue is one multiset entry: the value reported and its multiplicity.
type liveValue struct {
	v tuple.Value
	n int
}

func newAggState(spec AggSpec) *aggState {
	s := &aggState{spec: spec}
	if spec.Kind == Min || spec.Kind == Max {
		s.multi = make(map[tuple.Value]liveValue)
	}
	return s
}

// addLive counts n more copies of v, keeping the entry's first-seen value.
func (s *aggState) addLive(v tuple.Value, n int) {
	k := v.Canonical()
	e, ok := s.multi[k]
	if !ok {
		e.v = v
	}
	e.n += n
	s.multi[k] = e
}

// arg extracts the aggregated value from a row-form tuple; Count never reads
// a column (its Col is ignored and may be out of range).
func (s *aggState) arg(t tuple.Tuple) tuple.Value {
	if s.spec.Kind == Count {
		return tuple.Value{}
	}
	return t.Vals[s.spec.Col]
}

func (s *aggState) add(t tuple.Tuple) { s.addValue(s.arg(t)) }

func (s *aggState) remove(t tuple.Tuple) { s.removeValue(s.arg(t)) }

// addValue folds one arrival's value in. The columnar kernel calls this
// directly with values read from the typed vectors, so aggregate maintenance
// needs no row materialization.
func (s *aggState) addValue(v tuple.Value) {
	s.n++
	switch s.spec.Kind {
	case Sum, Avg:
		s.sum += v.AsFloat()
	case Min, Max:
		s.addLive(v, 1)
	}
}

// removeValue subtracts one departure's value.
func (s *aggState) removeValue(v tuple.Value) {
	s.n--
	switch s.spec.Kind {
	case Sum, Avg:
		s.sum -= v.AsFloat()
	case Min, Max:
		k := v.Canonical()
		if e := s.multi[k]; e.n <= 1 {
			delete(s.multi, k)
		} else {
			e.n--
			s.multi[k] = e
		}
	}
}

// value returns the current aggregate value; groups are removed before
// reaching n == 0, so callers never read an empty state.
func (s *aggState) value() tuple.Value {
	switch s.spec.Kind {
	case Count:
		return tuple.Int(s.n)
	case Sum:
		return tuple.Float(s.sum)
	case Avg:
		if s.n == 0 {
			return tuple.Null
		}
		return tuple.Float(s.sum / float64(s.n))
	case Min:
		var best tuple.Value
		first := true
		for _, e := range s.multi {
			if first || e.v.Less(best) {
				best, first = e.v, false
			}
		}
		if first {
			return tuple.Null
		}
		return best
	case Max:
		var best tuple.Value
		first := true
		for _, e := range s.multi {
			if first || best.Less(e.v) {
				best, first = e.v, false
			}
		}
		if first {
			return tuple.Null
		}
		return best
	default:
		return tuple.Null
	}
}
