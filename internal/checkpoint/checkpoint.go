// Package checkpoint defines the versioned, length-prefixed binary snapshot
// format the engine uses to persist operator, window, view, and table state.
//
// A checkpoint is a flat stream of primitive fields — unsigned and signed
// varints, length-prefixed strings, IEEE-754 floats — written by an Encoder
// and read back by a Decoder in the same order. Each state-carrying structure
// implements Snapshotter and owns its own section layout; the executor
// stitches sections together in plan pre-order, so the format needs no global
// schema beyond the plan fingerprint validated before any state is touched.
//
// Decoding is defensive: every length is bounded, collections grow
// incrementally rather than pre-allocating attacker-controlled counts, and
// any structural violation (bad magic, truncation, out-of-range kind bytes)
// latches an error wrapping ErrCorrupt instead of panicking. This makes the
// Decoder safe to fuzz against arbitrary input.
package checkpoint

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/tuple"
)

// Version is the current checkpoint format version. A Decoder refuses any
// other version with an error wrapping ErrVersion. Version 2 appended the
// string-interner section (symbol table and columnar-eligibility flag) to
// each engine state section; version-1 streams are not readable.
const Version = 2

// magic identifies a checkpoint stream. It never changes across versions;
// the version number that follows it does.
const magic = "UPACKPT\x00"

// Decode limits: a corrupt or hostile input may claim absurd lengths; these
// caps bound what the Decoder will accept before declaring corruption. They
// are far above anything a real engine writes.
const (
	maxStringLen = 1 << 26 // one string: 64 MiB
	maxCount     = 1 << 30 // one collection length
	maxCols      = 1 << 16 // columns in one key or tuple
)

// ErrCorrupt is wrapped by every decode error caused by malformed or
// truncated input (as opposed to I/O failures from the underlying reader).
var ErrCorrupt = errors.New("checkpoint: corrupt or truncated data")

// ErrVersion is wrapped when the stream's format version is not supported.
var ErrVersion = errors.New("checkpoint: unsupported format version")

// MismatchError reports a checkpoint that is structurally valid but was
// taken from an incompatible engine: a different query plan, strategy,
// schema, or shard layout. Restore fails with it before mutating any state.
type MismatchError struct {
	Field string // what differed: "plan", "shards", "table", ...
	Want  string // what the restoring engine expects
	Got   string // what the checkpoint carries
}

// Error implements error.
func (e *MismatchError) Error() string {
	return fmt.Sprintf("checkpoint: %s mismatch: engine has %q, checkpoint has %q", e.Field, e.Want, e.Got)
}

// Snapshotter is implemented by every structure that participates in a
// checkpoint: state buffers, windows, materialized views, tables, and
// operators. SaveState writes the structure's dynamic state; LoadState reads
// it back into a freshly constructed instance whose configuration (schemas,
// key columns, window specs) already matches — configuration is rebuilt from
// the plan, never serialized.
type Snapshotter interface {
	SaveState(enc *Encoder) error
	LoadState(dec *Decoder) error
}

// Encoder writes checkpoint fields to an io.Writer. The first write error
// latches: subsequent calls are no-ops and Err returns it. Methods therefore
// need no individual error checks; callers consult Err once at the end.
type Encoder struct {
	w io.Writer
	// buf stages varints, single bytes and pieces of strings, so no write
	// hands io.Writer a slice that escapes and allocates.
	buf [64]byte
	n   int64
	err error
}

// NewEncoder returns an Encoder writing to w.
func NewEncoder(w io.Writer) *Encoder { return &Encoder{w: w} }

// Err returns the first write error, or nil.
func (e *Encoder) Err() error { return e.err }

// Bytes returns how many bytes have been written so far.
func (e *Encoder) Bytes() int64 { return e.n }

func (e *Encoder) write(p []byte) {
	if e.err != nil {
		return
	}
	n, err := e.w.Write(p)
	e.n += int64(n)
	if err != nil {
		e.err = err
	}
}

// writeString writes s through buf a piece at a time: converting s to a byte
// slice would escape through io.Writer and allocate, and io.WriteString does
// exactly that for a writer without a WriteString method.
func (e *Encoder) writeString(s string) {
	for len(s) > 0 && e.err == nil {
		n := copy(e.buf[:], s)
		e.write(e.buf[:n])
		s = s[n:]
	}
}

// writeByte writes one byte through the Encoder's own buffer.
func (e *Encoder) writeByte(b byte) {
	e.buf[0] = b
	e.write(e.buf[:1])
}

// Begin writes the format magic and version; the first call on any stream.
func (e *Encoder) Begin() {
	e.writeString(magic)
	e.Uvarint(Version)
}

// Uvarint writes an unsigned varint.
func (e *Encoder) Uvarint(v uint64) {
	n := binary.PutUvarint(e.buf[:], v)
	e.write(e.buf[:n])
}

// Varint writes a signed (zig-zag) varint.
func (e *Encoder) Varint(v int64) {
	n := binary.PutVarint(e.buf[:], v)
	e.write(e.buf[:n])
}

// Bool writes a boolean as one byte.
func (e *Encoder) Bool(b bool) {
	if b {
		e.writeByte(1)
	} else {
		e.writeByte(0)
	}
}

// String writes a length-prefixed string.
func (e *Encoder) String(s string) {
	e.Uvarint(uint64(len(s)))
	e.writeString(s)
}

// Float writes a float64 as the varint of its IEEE-754 bits, round-tripping
// every value (including NaNs) exactly.
func (e *Encoder) Float(f float64) {
	e.Uvarint(math.Float64bits(f))
}

// Value writes one column value: a kind byte followed by the kind-specific
// payload (nothing for null).
func (e *Encoder) Value(v tuple.Value) {
	k := v.Kind()
	e.writeByte(byte(k))
	switch k {
	case tuple.KindInt:
		e.Varint(v.I)
	case tuple.KindFloat:
		e.Uvarint(uint64(v.I)) // the stored bits, as Float writes them
	case tuple.KindString:
		e.String(v.S)
	}
}

// Tuple writes one tuple: timestamps, polarity, then its values.
func (e *Encoder) Tuple(t tuple.Tuple) {
	e.Varint(t.TS)
	e.Varint(t.Exp)
	e.Bool(t.Neg)
	e.Uvarint(uint64(len(t.Vals)))
	for _, v := range t.Vals {
		e.Value(v)
	}
}

// Tuples writes a length-prefixed tuple slice.
func (e *Encoder) Tuples(ts []tuple.Tuple) {
	e.Uvarint(uint64(len(ts)))
	for _, t := range ts {
		e.Tuple(t)
	}
}

// Key writes a tuple key in its internal representation, so decoding
// reproduces a key that compares == to the original.
func (e *Encoder) Key(k tuple.Key) {
	n, v, wide := k.Raw()
	e.Uvarint(uint64(n))
	switch {
	case n >= 1 && n <= 3:
		for i := 0; i < n; i++ {
			e.Value(v[i])
		}
	case n > 3:
		e.String(wide)
	}
}

// Decoder reads checkpoint fields from an io.Reader. Like the Encoder, the
// first error latches; subsequent calls return zero values and Err reports
// the failure. All decode paths are bounded and panic-free on arbitrary
// input.
type Decoder struct {
	r   *bufio.Reader
	err error
}

// NewDecoder returns a Decoder reading from r.
func NewDecoder(r io.Reader) *Decoder { return &Decoder{r: bufio.NewReader(r)} }

// Err returns the first decode error, or nil.
func (d *Decoder) Err() error { return d.err }

func (d *Decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// corrupt latches a decode error wrapping ErrCorrupt.
func (d *Decoder) corrupt(format string, args ...any) {
	d.fail(fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...)))
}

// Begin reads and validates the magic and version; the first call on any
// stream.
func (d *Decoder) Begin() {
	var m [len(magic)]byte
	if d.err != nil {
		return
	}
	if _, err := io.ReadFull(d.r, m[:]); err != nil {
		d.corrupt("missing magic: %v", err)
		return
	}
	if string(m[:]) != magic {
		d.corrupt("bad magic %q", m[:])
		return
	}
	if v := d.Uvarint(); d.err == nil && v != Version {
		d.fail(fmt.Errorf("%w: got %d, support %d", ErrVersion, v, Version))
	}
}

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(d.r)
	if err != nil {
		d.readErr("uvarint", err)
		return 0
	}
	return v
}

// Varint reads a signed varint.
func (d *Decoder) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, err := binary.ReadVarint(d.r)
	if err != nil {
		d.readErr("varint", err)
		return 0
	}
	return v
}

// readErr classifies a low-level read failure: end-of-input mid-field is
// corruption (truncation), an overlong varint is corruption (encoding/binary
// reports overflow with an unexported sentinel, so match on the message);
// anything else is an I/O error passed through.
func (d *Decoder) readErr(what string, err error) {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		d.corrupt("truncated %s", what)
		return
	}
	if strings.Contains(err.Error(), "varint overflows") {
		d.corrupt("overlong %s", what)
		return
	}
	d.fail(err)
}

// Count reads a collection length, rejecting counts beyond the decode limit.
// Callers must grow collections incrementally (append per decoded element)
// rather than pre-allocating the full count, so memory stays proportional to
// the actual input size even when the count lies.
func (d *Decoder) Count() int {
	n := d.Uvarint()
	if n > maxCount {
		d.corrupt("count %d exceeds limit", n)
		return 0
	}
	return int(n)
}

// Bool reads a boolean, rejecting bytes other than 0 and 1.
func (d *Decoder) Bool() bool {
	if d.err != nil {
		return false
	}
	b, err := d.r.ReadByte()
	if err != nil {
		d.readErr("bool", err)
		return false
	}
	if b > 1 {
		d.corrupt("bad bool byte %d", b)
		return false
	}
	return b == 1
}

// String reads a length-prefixed string. The buffer grows in chunks as bytes
// actually arrive, so a lying length prefix cannot force a huge allocation.
func (d *Decoder) String() string {
	u := d.Uvarint()
	if d.err != nil {
		return ""
	}
	if u > maxStringLen {
		// Bound-check before the int cast: a uint64 near 2^64 would cast to
		// a negative int and slip past a signed comparison.
		d.corrupt("string length %d exceeds limit", u)
		return ""
	}
	n := int(u)
	b := make([]byte, 0, minInt(n, 4096))
	for len(b) < n {
		chunk := minInt(n-len(b), 4096)
		start := len(b)
		b = append(b, make([]byte, chunk)...)
		if _, err := io.ReadFull(d.r, b[start:]); err != nil {
			d.readErr("string", err)
			return ""
		}
	}
	return string(b)
}

// Float reads a float64 written by Encoder.Float.
func (d *Decoder) Float() float64 {
	return math.Float64frombits(d.Uvarint())
}

// Value reads one column value.
func (d *Decoder) Value() tuple.Value {
	if d.err != nil {
		return tuple.Null
	}
	b, err := d.r.ReadByte()
	if err != nil {
		d.readErr("value kind", err)
		return tuple.Null
	}
	switch tuple.Kind(b) {
	case tuple.KindNull:
		return tuple.Null
	case tuple.KindInt:
		return tuple.Int(d.Varint())
	case tuple.KindFloat:
		return tuple.FloatBits(d.Uvarint())
	case tuple.KindString:
		return tuple.String_(d.String())
	default:
		d.corrupt("bad value kind %d", b)
		return tuple.Null
	}
}

// Tuple reads one tuple.
func (d *Decoder) Tuple() tuple.Tuple {
	var t tuple.Tuple
	t.TS = d.Varint()
	t.Exp = d.Varint()
	t.Neg = d.Bool()
	n := d.Count()
	if n > maxCols {
		d.corrupt("tuple width %d exceeds limit", n)
		return tuple.Tuple{}
	}
	for i := 0; i < n && d.err == nil; i++ {
		t.Vals = append(t.Vals, d.Value())
	}
	return t
}

// Tuples reads a length-prefixed tuple slice; nil when empty.
func (d *Decoder) Tuples() []tuple.Tuple {
	n := d.Count()
	var out []tuple.Tuple
	for i := 0; i < n && d.err == nil; i++ {
		out = append(out, d.Tuple())
	}
	return out
}

// Key reads a tuple key written by Encoder.Key.
func (d *Decoder) Key() tuple.Key {
	u := d.Uvarint()
	if d.err != nil {
		return tuple.Key{}
	}
	if u > maxCols {
		d.corrupt("key width %d exceeds limit", u)
		return tuple.Key{}
	}
	n := int(u)
	var v [3]tuple.Value
	var wide string
	switch {
	case n >= 1 && n <= 3:
		for i := 0; i < n; i++ {
			v[i] = d.Value()
		}
	case n > 3:
		wide = d.String()
	}
	return tuple.KeyFromRaw(n, v, wide)
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
