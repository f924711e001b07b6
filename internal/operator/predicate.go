package operator

import (
	"fmt"
	"strings"

	"repro/internal/tuple"
)

// CmpOp is a comparison operator for predicates.
type CmpOp int

const (
	// EQ is equality.
	EQ CmpOp = iota
	// NE is inequality.
	NE
	// LT is less-than.
	LT
	// LE is less-or-equal.
	LE
	// GT is greater-than.
	GT
	// GE is greater-or-equal.
	GE
)

// String renders the comparison symbol.
func (o CmpOp) String() string {
	switch o {
	case EQ:
		return "="
	case NE:
		return "!="
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	default:
		return fmt.Sprintf("cmp(%d)", int(o))
	}
}

func (o CmpOp) eval(c int) bool {
	switch o {
	case EQ:
		return c == 0
	case NE:
		return c != 0
	case LT:
		return c < 0
	case LE:
		return c <= 0
	case GT:
		return c > 0
	case GE:
		return c >= 0
	default:
		return false
	}
}

// Predicate is a boolean expression over one tuple. Implementations must be
// deterministic and side-effect free. Selectivity returns the estimated
// fraction of tuples passing, feeding the cost model of Section 5.4.1.
type Predicate interface {
	Eval(t tuple.Tuple) bool
	Selectivity() float64
	// MaxCol is the highest column position the predicate references, or
	// -1 when it references none; the optimizer uses it for push-down
	// legality checks.
	MaxCol() int
	String() string
}

// ColConst compares a column against a constant.
type ColConst struct {
	Col int
	Op  CmpOp
	Val tuple.Value
	// Sel is the estimated selectivity; 0 means "use a default guess".
	Sel float64
}

// Eval implements Predicate. Equality against a same-kind int or string
// constant — the overwhelmingly common selection shape — compares directly
// instead of going through the three-way Compare, which orders across kinds
// and canonicalizes floats. Floats keep the Compare path so NaN keeps its
// ordered-comparison semantics.
func (p ColConst) Eval(t tuple.Tuple) bool {
	v := t.Vals[p.Col]
	if k := v.Kind(); (p.Op == EQ || p.Op == NE) && k == p.Val.Kind() {
		var eq bool
		switch k {
		case tuple.KindInt:
			eq = v.I == p.Val.I
		case tuple.KindString:
			eq = v.S == p.Val.S
		case tuple.KindNull:
			eq = true
		default:
			return p.Op.eval(v.Compare(p.Val))
		}
		return eq == (p.Op == EQ)
	}
	return p.Op.eval(v.Compare(p.Val))
}

// Selectivity implements Predicate.
func (p ColConst) Selectivity() float64 {
	if p.Sel > 0 {
		return p.Sel
	}
	if p.Op == EQ {
		return 0.1
	}
	return 0.5
}

// MaxCol implements Predicate.
func (p ColConst) MaxCol() int { return p.Col }

// String implements Predicate.
func (p ColConst) String() string { return fmt.Sprintf("$%d %s %v", p.Col, p.Op, p.Val) }

// ColCol compares two columns of the same tuple.
type ColCol struct {
	Left, Right int
	Op          CmpOp
	Sel         float64
}

// Eval implements Predicate.
func (p ColCol) Eval(t tuple.Tuple) bool { return p.Op.eval(t.Vals[p.Left].Compare(t.Vals[p.Right])) }

// Selectivity implements Predicate.
func (p ColCol) Selectivity() float64 {
	if p.Sel > 0 {
		return p.Sel
	}
	if p.Op == EQ {
		return 0.1
	}
	return 0.5
}

// MaxCol implements Predicate.
func (p ColCol) MaxCol() int {
	if p.Left > p.Right {
		return p.Left
	}
	return p.Right
}

// String implements Predicate.
func (p ColCol) String() string { return fmt.Sprintf("$%d %s $%d", p.Left, p.Op, p.Right) }

// And is conjunction over sub-predicates; an empty And is true.
type And []Predicate

// Eval implements Predicate.
func (a And) Eval(t tuple.Tuple) bool {
	for _, p := range a {
		if !p.Eval(t) {
			return false
		}
	}
	return true
}

// Selectivity implements Predicate (independence assumption).
func (a And) Selectivity() float64 {
	s := 1.0
	for _, p := range a {
		s *= p.Selectivity()
	}
	return s
}

// MaxCol implements Predicate.
func (a And) MaxCol() int { return maxColOf([]Predicate(a)) }

// String implements Predicate.
func (a And) String() string {
	if len(a) == 0 {
		return "true"
	}
	parts := make([]string, len(a))
	for i, p := range a {
		parts[i] = p.String()
	}
	return "(" + strings.Join(parts, " AND ") + ")"
}

// Or is disjunction over sub-predicates; an empty Or is false.
type Or []Predicate

// Eval implements Predicate.
func (o Or) Eval(t tuple.Tuple) bool {
	for _, p := range o {
		if p.Eval(t) {
			return true
		}
	}
	return false
}

// Selectivity implements Predicate (inclusion-exclusion under independence).
func (o Or) Selectivity() float64 {
	miss := 1.0
	for _, p := range o {
		miss *= 1 - p.Selectivity()
	}
	return 1 - miss
}

// MaxCol implements Predicate.
func (o Or) MaxCol() int { return maxColOf([]Predicate(o)) }

// String implements Predicate.
func (o Or) String() string {
	if len(o) == 0 {
		return "false"
	}
	parts := make([]string, len(o))
	for i, p := range o {
		parts[i] = p.String()
	}
	return "(" + strings.Join(parts, " OR ") + ")"
}

// Not negates a sub-predicate.
type Not struct{ P Predicate }

// Eval implements Predicate.
func (n Not) Eval(t tuple.Tuple) bool { return !n.P.Eval(t) }

// Selectivity implements Predicate.
func (n Not) Selectivity() float64 { return 1 - n.P.Selectivity() }

// MaxCol implements Predicate.
func (n Not) MaxCol() int { return n.P.MaxCol() }

// String implements Predicate.
func (n Not) String() string { return "NOT " + n.P.String() }

// True is the always-true predicate.
type True struct{}

// Eval implements Predicate.
func (True) Eval(tuple.Tuple) bool { return true }

// Selectivity implements Predicate.
func (True) Selectivity() float64 { return 1 }

// MaxCol implements Predicate.
func (True) MaxCol() int { return -1 }

// String implements Predicate.
func (True) String() string { return "true" }

func maxColOf(ps []Predicate) int {
	out := -1
	for _, p := range ps {
		if c := p.MaxCol(); c > out {
			out = c
		}
	}
	return out
}
