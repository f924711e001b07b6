package statebuf

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/tuple"
)

// oracleList is the DIRECT list as it was before it moved onto the paged
// deque: a linked list of tuples with the same loops and the same touch
// accounting, kept as the reference the model test drives beside ListBuffer.
type oracleList struct {
	head    oracleNode // sentinel: head.next is the first tuple
	tail    *oracleNode
	n       int
	touched int64
}

type oracleNode struct {
	t    tuple.Tuple
	next *oracleNode
}

func newOracleList() *oracleList {
	l := &oracleList{}
	l.tail = &l.head
	return l
}

func (l *oracleList) unlink(prev *oracleNode) {
	e := prev.next
	prev.next = e.next
	if l.tail == e {
		l.tail = prev
	}
	l.n--
}

func (l *oracleList) push(t tuple.Tuple) {
	l.tail.next = &oracleNode{t: t}
	l.tail = l.tail.next
	l.n++
}

func (l *oracleList) Insert(t tuple.Tuple) {
	l.touched++
	l.push(t)
}

func (l *oracleList) ExpireUpTo(now int64) []tuple.Tuple {
	var out []tuple.Tuple
	for prev := &l.head; prev.next != nil; {
		l.touched++
		if e := prev.next; e.t.Exp <= now {
			out = append(out, e.t)
			l.unlink(prev)
		} else {
			prev = e
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return expiresBefore(out[i], out[j]) })
	return out
}

func (l *oracleList) Remove(t tuple.Tuple) bool {
	var fallback *oracleNode
	for prev := &l.head; prev.next != nil; prev = prev.next {
		l.touched++
		got := prev.next.t
		if !got.SameVals(t) {
			continue
		}
		if got.Exp == t.Exp {
			l.unlink(prev)
			return true
		}
		if fallback == nil {
			fallback = prev
		}
	}
	if fallback == nil {
		return false
	}
	l.unlink(fallback)
	return true
}

func (l *oracleList) Scan(fn func(t tuple.Tuple) bool) {
	for e := l.head.next; e != nil; e = e.next {
		l.touched++
		if !fn(e.t) {
			return
		}
	}
}

func (l *oracleList) SaveState(enc *checkpoint.Encoder) error {
	enc.Varint(l.touched)
	enc.Uvarint(uint64(l.n))
	for e := l.head.next; e != nil; e = e.next {
		enc.Tuple(e.t)
	}
	return enc.Err()
}

func (l *oracleList) LoadState(dec *checkpoint.Decoder) error {
	l.touched = dec.Varint()
	l.head.next, l.tail, l.n = nil, &l.head, 0
	for _, t := range dec.Tuples() {
		l.push(t)
	}
	return dec.Err()
}

func saved(t *testing.T, s checkpoint.Snapshotter) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.SaveState(checkpoint.NewEncoder(&buf)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestListMatchesLinkedListModel drives ListBuffer and the linked-list oracle
// with one seeded schedule — value twins, out-of-order Exp, removals by exact
// Exp, by the first-twin fallback and of missing values, expiration passes
// over more than maxFreePages pages, scans and probes with early stops, and
// save → load round trips — and requires the same results, Len, Touched and
// checkpoint bytes after every step.
func TestListMatchesLinkedListModel(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	got := NewList()
	want := newOracleList()
	vals := make([][]tuple.Value, 7)
	for i := range vals {
		vals[i] = []tuple.Value{tuple.Int(int64(i)), tuple.String_("ftp")}
	}
	var inserted []tuple.Tuple
	ts, maxLen, bigPasses := int64(0), 0, 0
	for step := 0; step < 6000; step++ {
		var g, w string
		switch op := r.Intn(20); {
		case op < 11:
			ts += int64(r.Intn(2))
			tp := tuple.Tuple{TS: ts, Exp: ts + 1 + int64(r.Intn(1500)), Vals: vals[r.Intn(len(vals))]}
			got.Insert(tp)
			want.Insert(tp)
			inserted = append(inserted, tp)
		case op < 13 && len(inserted) > 0:
			tp := inserted[r.Intn(len(inserted))].Negative(ts)
			g, w = fmt.Sprint(got.Remove(tp)), fmt.Sprint(want.Remove(tp))
		case op == 13:
			tp := tuple.Tuple{Exp: -1, Neg: true, Vals: vals[r.Intn(len(vals))]}
			g, w = fmt.Sprint(got.Remove(tp)), fmt.Sprint(want.Remove(tp))
		case op == 14:
			tp := tuple.Tuple{Exp: ts, Neg: true, Vals: []tuple.Value{tuple.Int(99), tuple.String_("ftp")}}
			g, w = fmt.Sprint(got.Remove(tp)), fmt.Sprint(want.Remove(tp))
		case op < 17:
			now := ts - int64(r.Intn(200))
			if r.Intn(40) == 0 {
				ts += 2000 // a gap: the pass below empties every page
				now = ts
			}
			if got.Len() > maxFreePages*chunkSize {
				bigPasses++
			}
			g, w = fmt.Sprint(render(got.ExpireUpTo(now))), fmt.Sprint(render(want.ExpireUpTo(now)))
		case op == 17:
			stop := r.Intn(300)
			scan := func(b interface{ Scan(func(tuple.Tuple) bool) }) string {
				var seen []tuple.Tuple
				b.Scan(func(t tuple.Tuple) bool { seen = append(seen, t); return len(seen) < stop })
				return fmt.Sprint(render(seen))
			}
			g, w = scan(got), scan(want)
		case op == 18:
			k := tuple.Tuple{Vals: vals[r.Intn(len(vals))]}.Key([]int{0})
			now := ts - int64(r.Intn(200))
			var hits []tuple.Tuple
			want.Scan(func(t tuple.Tuple) bool {
				if !t.Expired(now) && t.KeyMatches([]int{0}, k) {
					hits = append(hits, t)
				}
				return true
			})
			g, w = fmt.Sprint(render(got.ScanAppend([]int{0}, k, now, nil))), fmt.Sprint(render(hits))
		default:
			g2, w2 := NewList(), newOracleList()
			if err := g2.LoadState(checkpoint.NewDecoder(bytes.NewReader(saved(t, got)))); err != nil {
				t.Fatal(err)
			}
			if err := w2.LoadState(checkpoint.NewDecoder(bytes.NewReader(saved(t, want)))); err != nil {
				t.Fatal(err)
			}
			got, want = g2, w2
		}
		if g != w {
			t.Fatalf("step %d: list %s, oracle %s", step, g, w)
		}
		if got.Len() != want.n || got.Touched() != want.touched {
			t.Fatalf("step %d: list Len %d Touched %d, oracle %d %d", step, got.Len(), got.Touched(), want.n, want.touched)
		}
		if !bytes.Equal(saved(t, got), saved(t, want)) {
			t.Fatalf("step %d: checkpoint bytes differ", step)
		}
		maxLen = max(maxLen, got.Len())
	}
	if maxLen <= maxFreePages*chunkSize || bigPasses == 0 {
		t.Fatalf("schedule never expired a list of more than %d pages (max %d tuples)", maxFreePages, maxLen)
	}
}
