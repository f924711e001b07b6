package statebuf

import (
	"repro/internal/checkpoint"
	"repro/internal/tuple"
)

// chunkSize is the number of tuples per page. A power of two keeps the
// index arithmetic to a shift and a mask; 128 tuples × ~56 bytes is a ~7 KiB
// page — big enough that page turnover is rare, small enough that a page
// pinned by one straggling live tuple wastes little.
const chunkSize = 128

// maxFreePages bounds the per-deque page freelist. Steady-state window churn
// cycles between one and two live pages, so a small cache absorbs all page
// turnover; beyond it pages are dropped to the GC.
const maxFreePages = 4

// chunk is one fixed-size page of tuples.
type chunk struct {
	items [chunkSize]tuple.Tuple
}

// chunkedTuples is a paged deque of tuples: pushes fill the tail page,
// head-pops advance an offset into the front page, and a page is released —
// cleared in one memclr and recycled through a freelist — only when wholly
// consumed. This is the arena discipline for window and state-buffer pages:
// expiration releases whole chunks instead of zeroing (and re-growing over)
// per-tuple slots, and the freelist makes steady-state window slide allocate
// nothing.
//
// The zero value is an empty deque.
type chunkedTuples struct {
	pages []*chunk
	off   int // index of logical element 0 within pages[0]
	n     int
	free  []*chunk
}

// Len returns the number of stored tuples.
func (c *chunkedTuples) Len() int { return c.n }

// At returns a pointer to logical element i.
func (c *chunkedTuples) At(i int) *tuple.Tuple {
	j := c.off + i
	return &c.pages[j/chunkSize].items[j%chunkSize]
}

// Push appends t at the tail.
func (c *chunkedTuples) Push(t tuple.Tuple) {
	end := c.off + c.n
	pg := end / chunkSize
	if pg == len(c.pages) {
		c.pages = append(c.pages, c.newPage())
	}
	c.pages[pg].items[end%chunkSize] = t
	c.n++
}

// PopHead removes and returns the front element. Popped slots are not zeroed
// individually; the page is cleared wholesale when its last element leaves.
func (c *chunkedTuples) PopHead() tuple.Tuple {
	t := c.pages[0].items[c.off]
	c.off++
	c.n--
	if c.n == 0 {
		c.Reset()
	} else if c.off == chunkSize {
		c.recycle(0)
		c.off = 0
	}
	return t
}

// RemoveAt deletes logical element i, shifting later elements left one slot.
func (c *chunkedTuples) RemoveAt(i int) {
	for j := i; j < c.n-1; j++ {
		*c.At(j) = *c.At(j + 1)
	}
	c.Truncate(c.n - 1)
}

// Truncate keeps the first n elements: the slots it frees in the last page
// kept are cleared, and every page after that one is recycled.
func (c *chunkedTuples) Truncate(n int) {
	if n == 0 {
		c.Reset()
		return
	}
	last := (c.off + n - 1) / chunkSize // the last page kept
	base := last * chunkSize
	clear(c.pages[last].items[c.off+n-base : min(c.off+c.n-base, chunkSize)])
	for len(c.pages) > last+1 {
		c.recycle(len(c.pages) - 1)
	}
	c.n = n
}

// Reset empties the deque, releasing every page to the freelist.
func (c *chunkedTuples) Reset() {
	for len(c.pages) > 0 {
		c.recycle(len(c.pages) - 1)
	}
	c.off = 0
	c.n = 0
}

// Save writes the elements front to back, in Encoder.Tuples' layout.
func (c *chunkedTuples) Save(enc *checkpoint.Encoder) {
	enc.Uvarint(uint64(c.n))
	for i := 0; i < c.n; i++ {
		enc.Tuple(*c.At(i))
	}
}

// Load replaces the contents with the tuples Save wrote.
func (c *chunkedTuples) Load(dec *checkpoint.Decoder) {
	c.Reset()
	for _, t := range dec.Tuples() {
		c.Push(t)
	}
}

// recycle detaches pages[i], clears it in one pass, and caches it for reuse.
func (c *chunkedTuples) recycle(i int) {
	pg := c.pages[i]
	copy(c.pages[i:], c.pages[i+1:])
	c.pages[len(c.pages)-1] = nil
	c.pages = c.pages[:len(c.pages)-1]
	*pg = chunk{} // whole-page memclr releases every tuple reference at once
	if len(c.free) < maxFreePages {
		c.free = append(c.free, pg)
	}
}

// newPage takes a page from the freelist or allocates a fresh one.
func (c *chunkedTuples) newPage() *chunk {
	if n := len(c.free); n > 0 {
		pg := c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
		return pg
	}
	return new(chunk)
}
