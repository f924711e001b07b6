package tuple

import "fmt"

// Interner is a two-way symbol table mapping string values to dense uint32
// ids. One interner lives in each engine (one per shard under sharded
// execution): every string value admitted through the columnar ingest path is
// interned once, so equality tests inside columnar kernels compare ids, and
// materialized values share one canonical string per distinct content (string
// equality against a stored twin short-circuits on the shared pointer).
//
// Ids are positional — id i names strs[i] — which makes the table trivially
// serializable as an ordered string list: a checkpoint section writes the
// list, and restore rebuilds the map with identical id assignments, so any
// id-derived state survives Checkpoint/Restore and shard interchange.
//
// Ids never travel between engines: operator state and checkpoint tuple
// sections store full string values, and each engine re-interns at its own
// ingest boundary. An Interner is not safe for concurrent use; shards own
// theirs exclusively.
type Interner struct {
	ids  map[string]uint32
	strs []string
	// cache is a direct-mapped front for Intern: stream values draw from a
	// small live vocabulary (protocol names, status strings), so most interns
	// re-see a recent string and resolve on a slot compare instead of a map
	// probe. Slots hold canonical strings, so the == against a stored twin
	// usually short-circuits on the shared pointer. Misses fall through to
	// the map; ids are append-only between Resets, so a populated slot is
	// never stale, and Reset flushes the cache. Slot ids are biased by one so
	// the zero value means empty.
	cache [cacheSlots]struct {
		s   string
		id1 uint32
	}
}

// cacheSlots sizes the direct-mapped intern cache; must be a power of two.
const cacheSlots = 64

// cacheSlot picks a slot from cheap string facts (length and boundary bytes),
// enough to spread a protocol-sized vocabulary across distinct slots.
func cacheSlot(s string) int {
	h := uint32(len(s)) * 131
	if len(s) > 0 {
		h += uint32(s[0])*31 + uint32(s[len(s)-1])
	}
	return int(h & (cacheSlots - 1))
}

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	return &Interner{ids: make(map[string]uint32)}
}

// Intern returns the id of s, assigning the next dense id on first sight.
func (in *Interner) Intern(s string) uint32 {
	slot := cacheSlot(s)
	if c := &in.cache[slot]; c.id1 != 0 && c.s == s {
		return c.id1 - 1
	}
	id, ok := in.ids[s]
	if !ok {
		id = uint32(len(in.strs))
		in.strs = append(in.strs, s)
		in.ids[s] = id
	}
	in.cache[slot].s = in.strs[id]
	in.cache[slot].id1 = id + 1
	return id
}

// Lookup returns the id of s without interning it; ok is false when s has
// never been interned. Kernels resolve predicate constants through Lookup
// once per batch, so a constant absent from the table simply matches no
// stored string (or every one, under inequality).
func (in *Interner) Lookup(s string) (uint32, bool) {
	id, ok := in.ids[s]
	return id, ok
}

// Str returns the canonical string for id. The id must have been produced by
// this interner (or restored into it).
func (in *Interner) Str(id uint32) string { return in.strs[id] }

// Value returns the canonical string value for id.
func (in *Interner) Value(id uint32) Value { return String_(in.strs[id]) }

// Len returns the number of distinct interned strings.
func (in *Interner) Len() int { return len(in.strs) }

// Strings returns the interned strings in id order — the checkpoint
// representation. The returned slice aliases the interner's table; callers
// must not mutate it.
func (in *Interner) Strings() []string { return in.strs }

// Reset replaces the table with strs, assigning id i to strs[i]. It rejects
// duplicate entries: positional ids require the list to be injective, and a
// duplicate means the snapshot is corrupt.
func (in *Interner) Reset(strs []string) error {
	ids := make(map[string]uint32, len(strs))
	for i, s := range strs {
		if _, dup := ids[s]; dup {
			return fmt.Errorf("interner: duplicate string %q in snapshot", s)
		}
		ids[s] = uint32(i)
	}
	in.ids = ids
	in.strs = strs
	in.cache = [cacheSlots]struct {
		s   string
		id1 uint32
	}{} // cached ids refer to the replaced table
	return nil
}
