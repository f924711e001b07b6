package statebuf

import "fmt"

// Kind identifies a buffer implementation.
type Kind int

const (
	// KindFIFO is the WKS structure: a deque ordered by expiration.
	KindFIFO Kind = iota
	// KindList is the DIRECT baseline: the FIFO's paged deque in insertion
	// order, scanned whole by every expiration, removal and probe.
	KindList
	// KindPartitioned is the WK structure: calendar of expiration buckets.
	KindPartitioned
	// KindHash is the NT/STR structure: the keyed store on key columns.
	KindHash
	// KindIndexedFIFO is the UPA structure for probed WKS state: a keyed
	// calendar with one partition, sorted by expiration, spanning all time.
	KindIndexedFIFO
)

var kindNames = [...]string{"fifo", "list", "partitioned", "hash", "indexed-fifo"}

// String names the kind as used in experiment reports.
func (k Kind) String() string {
	if k >= 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Config carries the construction parameters a physical plan assigns to each
// state buffer.
type Config struct {
	Kind Kind
	// KeyCols are the key columns KindHash and KindIndexedFIFO index, and the
	// ones KindPartitioned indexes when it is given any (state that is only
	// ever expired goes without).
	KeyCols []int
	// Partitions is the partition count for KindPartitioned (default 10,
	// matching Section 6.1's default).
	Partitions int
	// Horizon is the rolling expiration horizon for KindPartitioned,
	// normally the window size bounding the state.
	Horizon int64
	// SortedByExp selects the eager (sorted-by-expiration) partition
	// variant for KindPartitioned.
	SortedByExp bool
}

// DefaultPartitions matches the experimental default of Section 6.1.
const DefaultPartitions = 10

// New builds a buffer from cfg.
func New(cfg Config) Buffer {
	switch cfg.Kind {
	case KindFIFO:
		return NewFIFO()
	case KindList:
		return NewList()
	case KindPartitioned:
		b := NewPartitioned(cfg.Partitions, cfg.Horizon, cfg.SortedByExp)
		if len(cfg.KeyCols) == 0 {
			return b
		}
		b.indexOn(cfg.KeyCols)
		return keyedCalendar{b}
	case KindHash:
		return NewHash(cfg.KeyCols)
	case KindIndexedFIFO:
		return newIndexedFIFO(cfg.KeyCols)
	default:
		panic(fmt.Sprintf("statebuf: unknown kind %v", cfg.Kind))
	}
}

// Kinder is implemented by buffers that can report their implementation
// kind; every buffer in this package does. Plan introspection (EXPLAIN)
// uses it to show which structure an operator actually stores state in,
// without re-deriving the planner's choice.
type Kinder interface {
	Kind() Kind
}

// KindOf names b's implementation kind, or "?" for a foreign buffer.
func KindOf(b Buffer) string {
	if k, ok := b.(Kinder); ok {
		return k.Kind().String()
	}
	return "?"
}
