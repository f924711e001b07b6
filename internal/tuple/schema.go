package tuple

import (
	"fmt"
	"strings"
)

// Column describes one attribute of a schema.
type Column struct {
	Name string
	Kind Kind
}

// Schema is an ordered list of named, typed columns. Schemas are immutable
// after construction — the type has no mutating method, so one value can be
// shared freely (trace.Schema hands out a single one) — and operators derive
// new schemas rather than mutating.
type Schema struct {
	cols  []Column
	index map[string]int
}

// NewSchema builds a schema from columns. Column names must be unique.
func NewSchema(cols ...Column) (*Schema, error) {
	s := &Schema{cols: append([]Column(nil), cols...), index: make(map[string]int, len(cols))}
	for i, c := range cols {
		if c.Name == "" {
			return nil, fmt.Errorf("schema: column %d has empty name", i)
		}
		if _, dup := s.index[c.Name]; dup {
			return nil, fmt.Errorf("schema: duplicate column %q", c.Name)
		}
		s.index[c.Name] = i
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error; for tests and literals.
func MustSchema(cols ...Column) *Schema {
	s, err := NewSchema(cols...)
	if err != nil {
		panic(err)
	}
	return s
}

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.cols) }

// Col returns the i-th column.
func (s *Schema) Col(i int) Column { return s.cols[i] }

// Columns returns a copy of the column list.
func (s *Schema) Columns() []Column { return append([]Column(nil), s.cols...) }

// Index returns the position of the named column, or -1 if absent.
func (s *Schema) Index(name string) int {
	if i, ok := s.index[name]; ok {
		return i
	}
	return -1
}

// MustIndex is Index that panics when the column is absent.
func (s *Schema) MustIndex(name string) int {
	i := s.Index(name)
	if i < 0 {
		panic(fmt.Sprintf("schema: no column %q in %s", name, s))
	}
	return i
}

// Project returns a new schema keeping only the columns at the given
// positions, in that order.
func (s *Schema) Project(positions []int) (*Schema, error) {
	cols := make([]Column, len(positions))
	for i, p := range positions {
		if p < 0 || p >= len(s.cols) {
			return nil, fmt.Errorf("schema: project position %d out of range (%d cols)", p, len(s.cols))
		}
		cols[i] = s.cols[p]
	}
	return NewSchema(cols...)
}

// Concat returns the concatenation of two schemas, renaming collisions on the
// right side with a "r_" prefix (and numeric suffixes if still colliding).
// Used by join operators to derive their output schema.
func (s *Schema) Concat(o *Schema) *Schema {
	cols := append([]Column(nil), s.cols...)
	used := make(map[string]bool, len(cols)+o.Len())
	for _, c := range cols {
		used[c.Name] = true
	}
	for _, c := range o.cols {
		name := c.Name
		for n := 0; used[name]; n++ {
			if n == 0 {
				name = "r_" + c.Name
			} else {
				name = fmt.Sprintf("r_%s_%d", c.Name, n)
			}
		}
		used[name] = true
		cols = append(cols, Column{Name: name, Kind: c.Kind})
	}
	out, err := NewSchema(cols...)
	if err != nil {
		panic(err) // unreachable: names are de-duplicated above
	}
	return out
}

// EqualLayout reports whether two schemas have the same column kinds in the
// same order (names may differ). Union and intersection require this.
func (s *Schema) EqualLayout(o *Schema) bool {
	if s.Len() != o.Len() {
		return false
	}
	for i := range s.cols {
		if s.cols[i].Kind != o.cols[i].Kind {
			return false
		}
	}
	return true
}

// String renders the schema as "(name kind, ...)".
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, c := range s.cols {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s", c.Name, c.Kind)
	}
	b.WriteByte(')')
	return b.String()
}
