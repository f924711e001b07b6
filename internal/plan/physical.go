package plan

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/operator"
	"repro/internal/statebuf"
	"repro/internal/tuple"
	"repro/internal/window"
)

// STRStorage selects how strict non-monotonic results are stored under UPA
// (Section 5.3.2 offers two choices, decided by the expected frequency of
// premature expirations).
type STRStorage int

const (
	// STRAuto picks by the cost model's overlap estimate.
	STRAuto STRStorage = iota
	// STRPartitioned keeps the partitioned calendar, indexed on the
	// retraction key for the (rare) negative tuples.
	STRPartitioned
	// STRHash makes negation emit a negative tuple for every expiration and
	// stores results in a hash table on the negation attribute — the
	// "negative tuple approach above negation" of Section 5.4.3.
	STRHash
)

// String names the storage choice.
func (s STRStorage) String() string {
	switch s {
	case STRPartitioned:
		return "partitioned"
	case STRHash:
		return "hash"
	default:
		return "auto"
	}
}

// Options tune physical planning.
type Options struct {
	// Partitions is the partition count of partitioned buffers
	// (default 10, the Section 6.1 default).
	Partitions int
	// STR selects strict-result storage under UPA.
	STR STRStorage
	// OverlapThreshold is the estimated premature-expiration fraction above
	// which STRAuto picks the hash storage (default 0.25).
	OverlapThreshold float64
}

func (o Options) partitions() int {
	if o.Partitions > 0 {
		return o.Partitions
	}
	return statebuf.DefaultPartitions
}

// ViewKind selects the materialized-result structure.
type ViewKind int

const (
	// ViewAppend accumulates results forever (monotonic queries).
	ViewAppend ViewKind = iota
	// ViewFIFO expires results in insertion order (WKS).
	ViewFIFO
	// ViewList is the DIRECT baseline: insertion-ordered with scans.
	ViewList
	// ViewPartitioned is the calendar structure of Figure 7 (WK/STR-rare).
	ViewPartitioned
	// ViewHash keys results for O(1) retraction (NT / STR-frequent).
	ViewHash
	// ViewKeyed replaces rows by key — group-by results (Section 5.3.2:
	// "stored as an array, indexed by group").
	ViewKeyed
)

// String names the view kind.
func (k ViewKind) String() string {
	switch k {
	case ViewAppend:
		return "append"
	case ViewFIFO:
		return "fifo"
	case ViewList:
		return "list"
	case ViewPartitioned:
		return "partitioned"
	case ViewHash:
		return "hash"
	case ViewKeyed:
		return "keyed"
	default:
		return fmt.Sprintf("view(%d)", int(k))
	}
}

// ViewConfig tells the executor how to materialize the result.
type ViewConfig struct {
	Kind ViewKind
	// KeyCols are the replacement/removal key for ViewHash and ViewKeyed, and
	// the retraction key a ViewPartitioned under a strict root indexes.
	KeyCols []int
	// Horizon and Partitions size ViewPartitioned.
	Horizon    int64
	Partitions int
	// TimeExpiry enables exp-timestamp expiration of the view.
	TimeExpiry bool
}

// PNode is one physical operator with its wiring.
type PNode struct {
	Op      operator.Operator
	Class   core.OpClass
	Pattern core.Pattern
	Inputs  []*PNode // nil entries are source-fed edges
}

// PSource is one base-stream window leaf.
type PSource struct {
	StreamID int
	Spec     window.Spec
	Window   *window.Window
	Schema   *tuple.Schema
	// Consumer and Side locate the operator edge this source feeds; a nil
	// Consumer means the source feeds the materialized view directly.
	Consumer *PNode
	Side     int
}

// Physical is an executable plan: operators constructed and wired, sources
// bound, and the result view configured.
type Physical struct {
	Strategy Strategy
	Logical  *Node
	Opts     Options // build options, kept so the plan can be rebuilt (sharding)
	Root     *PNode  // nil for a bare source plan
	Sources  []*PSource
	Tables   []*PNode // operators consuming relations, for update routing
	View     ViewConfig
	Schema   *tuple.Schema
	Pattern  core.Pattern
}

// Build turns an annotated logical plan into a physical plan under the given
// strategy. Annotate must have been called (and succeeded) on root.
func Build(root *Node, s Strategy, opts Options) (*Physical, error) {
	if root.Schema == nil {
		return nil, fmt.Errorf("plan: Build requires an annotated plan (call Annotate first)")
	}
	p := &Physical{Strategy: s, Logical: root, Opts: opts, Schema: root.Schema, Pattern: root.Pattern}
	node, err := p.build(root, opts)
	if err != nil {
		return nil, err
	}
	p.Root = node
	p.View = p.viewConfig(root, s, opts)
	return p, nil
}

// build recursively constructs the operator for n, wiring children and
// registering sources. It returns nil for Source nodes (their edge is fed by
// the executor directly).
func (p *Physical) build(n *Node, opts Options) (*PNode, error) {
	if n.Kind == Source {
		// Materialize the window when the strategy needs explicit
		// retractions from it: always under NT, and for count-based windows
		// under every strategy (their evictions are arrival-driven).
		materialize := p.Strategy == NT && !n.Window.IsUnbounded()
		w, err := window.New(n.Window, materialize)
		if err != nil {
			return nil, err
		}
		p.Sources = append(p.Sources, &PSource{
			StreamID: n.StreamID,
			Spec:     n.Window,
			Window:   w,
			Schema:   n.Schema,
		})
		return nil, nil
	}

	children := make([]*PNode, len(n.Inputs))
	childSources := make([][2]int, len(n.Inputs)) // source index ranges
	for i, in := range n.Inputs {
		from := len(p.Sources)
		c, err := p.build(in, opts)
		if err != nil {
			return nil, err
		}
		children[i] = c
		childSources[i] = [2]int{from, len(p.Sources)}
	}

	op, err := p.makeOperator(n, opts)
	if err != nil {
		return nil, err
	}
	pn := &PNode{Op: op, Pattern: n.Pattern, Inputs: children}
	pn.Class = op.Class()
	for i, c := range children {
		if c != nil {
			continue // its sources feed operators inside it
		}
		// The child edge is a source (or a table-only edge): bind any
		// sources registered while building it to this operator input.
		for si := childSources[i][0]; si < childSources[i][1]; si++ {
			p.Sources[si].Consumer = pn
			p.Sources[si].Side = i
		}
	}
	if _, ok := op.(operator.TableOperator); ok {
		p.Tables = append(p.Tables, pn)
	}
	return pn, nil
}

// bufFor picks the state-buffer structure for a stored input with the given
// update pattern — the core of Section 5.3.2.
func (p *Physical) bufFor(pattern core.Pattern, horizon int64, keyCols []int, eager bool, opts Options) statebuf.Config {
	switch p.Strategy {
	case NT:
		return statebuf.Config{Kind: statebuf.KindHash, KeyCols: keyCols}
	case Direct:
		return statebuf.Config{Kind: statebuf.KindList}
	default: // UPA
		switch {
		case pattern <= core.Weakest:
			if len(keyCols) > 0 {
				// FIFO expiration plus a key index for O(1) key probes
				// (joins, retractions); plain FIFO when no key is probed.
				return statebuf.Config{Kind: statebuf.KindIndexedFIFO, KeyCols: keyCols}
			}
			return statebuf.Config{Kind: statebuf.KindFIFO}
		case pattern == core.Weak:
			// The calendar indexes keyCols when it is given any, for the same
			// probes and retractions.
			return statebuf.Config{
				Kind:        statebuf.KindPartitioned,
				KeyCols:     keyCols,
				Horizon:     horizon,
				Partitions:  opts.partitions(),
				SortedByExp: eager,
			}
		default: // Strict: negative tuples arrive; hash finds them fast.
			return statebuf.Config{Kind: statebuf.KindHash, KeyCols: keyCols}
		}
	}
}

func (p *Physical) makeOperator(n *Node, opts Options) (operator.Operator, error) {
	nt := p.Strategy == NT
	switch n.Kind {
	case Select:
		return operator.NewSelect(n.Schema, n.Pred), nil

	case Project:
		return operator.NewProject(n.Inputs[0].Schema, n.Cols)

	case Union:
		return operator.NewUnion(n.Inputs[0].Schema, n.Inputs[1].Schema)

	case Join:
		l, r := n.Inputs[0], n.Inputs[1]
		return operator.NewJoin(operator.JoinConfig{
			Left: l.Schema, Right: r.Schema,
			LeftCols: n.LeftCols, RightCols: n.RightCols,
			Residual:     n.Residual,
			LeftBuf:      p.bufFor(l.Pattern, l.Horizon, n.LeftCols, false, opts),
			RightBuf:     p.bufFor(r.Pattern, r.Horizon, n.RightCols, false, opts),
			NoTimeExpiry: nt,
		})

	case Intersect:
		l, r := n.Inputs[0], n.Inputs[1]
		return operator.NewIntersect(operator.IntersectConfig{
			Left: l.Schema, Right: r.Schema,
			Horizon:       n.Horizon,
			Partitions:    opts.partitions(),
			ListCalendars: p.Strategy == Direct,
			NoTimeExpiry:  nt,
		})

	case Distinct:
		in := n.Inputs[0]
		if p.Strategy == UPA && in.Pattern <= core.Weak {
			// Section 5.3.1: δ replaces the literature implementation
			// whenever the input cannot deliver premature expirations.
			return operator.NewDistinctDelta(n.Schema, n.Horizon, opts.partitions()), nil
		}
		repIdx := statebuf.Config{Kind: statebuf.KindPartitioned, Horizon: n.Horizon, Partitions: opts.partitions(), SortedByExp: true}
		if p.Strategy == Direct {
			repIdx = statebuf.Config{Kind: statebuf.KindList}
		}
		allCols := make([]int, in.Schema.Len())
		for i := range allCols {
			allCols[i] = i
		}
		return operator.NewDistinct(operator.DistinctConfig{
			Schema:     n.Schema,
			InputBuf:   p.bufFor(in.Pattern, in.Horizon, allCols, true, opts),
			RepIdx:     repIdx,
			TimeExpiry: !nt,
		}), nil

	case GroupBy:
		in := n.Inputs[0]
		bufKey := n.GroupCols
		if in.Pattern == core.Weak {
			// A WK input is stored only to be expired: it is never probed and
			// never retracted, so its calendar carries no index.
			bufKey = nil
		}
		return operator.NewGroupBy(operator.GroupByConfig{
			Input:        in.Schema,
			GroupCols:    n.GroupCols,
			Aggs:         n.Aggs,
			InputBuf:     p.bufFor(in.Pattern, in.Horizon, bufKey, true, opts),
			NoTimeExpiry: nt,
			// Running aggregates over unbounded streams (Section 3.1):
			// nothing expires or retracts, so the input is not stored.
			NoInputStore: in.Pattern == core.Monotonic,
		})

	case Negate:
		return operator.NewNegate(operator.NegateConfig{
			Left: n.Inputs[0].Schema, Right: n.Inputs[1].Schema,
			LeftCols: n.LeftCols, RightCols: n.RightCols,
			Horizon:          n.Horizon,
			Partitions:       opts.partitions(),
			ListCalendars:    p.Strategy == Direct,
			NoTimeExpiry:     nt,
			NegativeOnExpiry: p.Strategy == UPA && p.strHash(n, opts),
		})

	case RelJoin:
		in := n.Inputs[0]
		return operator.NewRelJoin(operator.RelJoinConfig{
			Stream: in.Schema, Table: n.Table,
			StreamCols: n.LeftCols, TableCols: n.RightCols,
			StreamBuf:    p.bufFor(in.Pattern, in.Horizon, n.LeftCols, false, opts),
			NoTimeExpiry: nt,
		})

	case NRRJoin:
		in := n.Inputs[0]
		return operator.NewNRRJoin(operator.NRRJoinConfig{
			Stream: in.Schema, Table: n.Table,
			StreamCols: n.LeftCols, TableCols: n.RightCols,
			// NT-mode retractions need the result log — but only when the
			// streaming input can expire at all.
			LogResults: nt && in.Pattern != core.Monotonic,
		})

	default:
		return nil, fmt.Errorf("plan: cannot build operator for %v", n.Kind)
	}
}

// strHash decides whether UPA stores strict results in the hash/negative
// form (Section 5.4.3): explicitly via Options.STR, else by the estimated
// premature-expiration frequency.
func (p *Physical) strHash(root *Node, opts Options) bool {
	switch opts.STR {
	case STRHash:
		return true
	case STRPartitioned:
		return false
	}
	threshold := opts.OverlapThreshold
	if threshold <= 0 {
		threshold = 0.25
	}
	return estimatedOverlap(root) > threshold
}

// estimatedOverlap finds the maximum premature-expiration estimate across
// negation nodes in the subtree.
func estimatedOverlap(n *Node) float64 {
	out := 0.0
	if n.Kind == Negate {
		out = overlapFraction(n.Inputs[0], n.Inputs[1])
	}
	for _, in := range n.Inputs {
		if f := estimatedOverlap(in); f > out {
			out = f
		}
	}
	return out
}

// viewConfig picks the materialized-result structure (Section 5.3.2).
func (p *Physical) viewConfig(root *Node, s Strategy, opts Options) ViewConfig {
	allCols := make([]int, root.Schema.Len())
	for i := range allCols {
		allCols[i] = i
	}
	// Group-by results replace by group under every strategy ("stored as an
	// array, indexed by group label").
	if root.Kind == GroupBy {
		keys := make([]int, len(root.GroupCols))
		for i := range keys {
			keys[i] = i
		}
		return ViewConfig{Kind: ViewKeyed, KeyCols: keys}
	}
	if root.Pattern == core.Monotonic {
		return ViewConfig{Kind: ViewAppend}
	}
	switch s {
	case NT:
		return ViewConfig{Kind: ViewHash, KeyCols: allCols}
	case Direct:
		return ViewConfig{Kind: ViewList, TimeExpiry: true}
	default: // UPA
		switch root.Pattern {
		case core.Weakest:
			return ViewConfig{Kind: ViewFIFO, TimeExpiry: true}
		case core.Weak:
			return ViewConfig{Kind: ViewPartitioned, Horizon: root.Horizon, Partitions: opts.partitions(), TimeExpiry: true}
		default: // Strict
			if p.strHash(root, opts) {
				// Negation emits a negative for every expiration; results
				// whose other constituents expire by time still need the
				// timestamp path unless the root is the negation itself.
				return ViewConfig{
					Kind:       ViewHash,
					KeyCols:    p.strKeyCols(root),
					Horizon:    root.Horizon,
					Partitions: opts.partitions(),
					TimeExpiry: root.Kind != Negate,
				}
			}
			// Premature expirations are rare here but not free: the calendar
			// indexes the retraction key so a negative tuple finds its row
			// without looking through the partitions.
			return ViewConfig{Kind: ViewPartitioned, KeyCols: p.strKeyCols(root), Horizon: root.Horizon, Partitions: opts.partitions(), TimeExpiry: true}
		}
	}
}

// strKeyCols keys the hash view on the negation attribute when the root is
// the negation (Section 5.4.3: "the final result is a hash table on the
// negation attribute"), else on the full tuple.
func (p *Physical) strKeyCols(root *Node) []int {
	if root.Kind == Negate {
		return root.LeftCols
	}
	all := make([]int, root.Schema.Len())
	for i := range all {
		all[i] = i
	}
	return all
}
