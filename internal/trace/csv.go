package trace

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/tuple"
)

// A trace file is CSV: a header row, then one row per record holding the
// link index followed by the record schema.
const (
	csvHeader = "link,ts,duration,protocol,payload,src,dst\n"
	csvFields = 1 + numCols
)

// WriteCSV writes records as CSV with a header row, byte for byte what
// encoding/csv's writer produces for the same fields.
func WriteCSV(w io.Writer, recs []Record) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(csvHeader); err != nil {
		return err
	}
	var row []byte // one row at a time, reused
	for _, r := range recs {
		row = strconv.AppendInt(row[:0], int64(r.Link), 10)
		row = append(row, ',')
		row = strconv.AppendInt(row, r.TS, 10)
		row = append(row, ',')
		row = strconv.AppendFloat(row, r.Vals[ColDuration].F(), 'g', -1, 64)
		row = append(row, ',')
		row = appendCSVField(row, r.Vals[ColProtocol].S)
		row = append(row, ',')
		row = strconv.AppendInt(row, r.Vals[ColPayload].I, 10)
		row = append(row, ',')
		row = strconv.AppendInt(row, r.Vals[ColSrc].I, 10)
		row = append(row, ',')
		row = strconv.AppendInt(row, r.Vals[ColDst].I, 10)
		row = append(row, '\n')
		if _, err := bw.Write(row); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// appendCSVField appends s as one CSV field, quoted when encoding/csv's writer
// would quote it — s holds a comma, a quote or a line break, starts with a
// space character, or is the literal `\.` — with `"` doubled inside the quotes.
func appendCSVField(dst []byte, s string) []byte {
	first, _ := utf8.DecodeRuneInString(s)
	if s == "" || s != `\.` && !strings.ContainsAny(s, ",\"\r\n") && !unicode.IsSpace(first) {
		return append(dst, s...)
	}
	dst = append(dst, '"')
	for i := 0; i < len(s); i++ {
		if s[i] == '"' {
			dst = append(dst, '"')
		}
		dst = append(dst, s[i])
	}
	return append(dst, '"')
}

// Scanner-level errors. Field-level errors are strconv's own.
var (
	errBareQuote  = errors.New(`bare " in non-quoted field`)
	errQuote      = errors.New(`extraneous or missing " in quoted field`)
	errFieldCount = errors.New("wrong number of fields")
)

const (
	readBufSize = 64 << 10
	// maxProtocols bounds the reader's protocol table, so a file of distinct
	// garbage protocols costs one string each but cannot grow the table.
	maxProtocols = 1024
)

// Reader streams the records of a trace file. It is the package's one
// parser: it reads into its own buffer and parses a plain row — seven unquoted
// fields of digits, a float and a protocol — in one pass over its bytes
// (fast). Any other row is split into fields in place (scan) and converted
// field by field (parse), which is also where every error comes from. It fills
// a record the caller owns, so a pass over a file allocates once per distinct
// protocol and not per record.
//
// It accepts what encoding/csv accepts with its default settings: rows end in
// "\n" or "\r\n" (the last one may end with the file), blank lines are
// skipped, a field that starts with `"` is quoted — it may hold commas, line
// breaks ("\r\n" folds to "\n") and `""` for a quote — and a `"` anywhere
// else is an error. The first row is a header and only its field count is
// checked; every later row must have seven fields, with link, ts, payload,
// src and dst in strconv.ParseInt's base-10 syntax and range, and duration in
// strconv.ParseFloat's. Timestamps must not decrease and links must not be
// negative.
//
// Errors name the record's ordinal in the file, the header being line 1
// ("trace: line 3: ts: strconv.ParseInt: parsing "x": invalid syntax"); it is
// the line number whenever the file has no blank lines or multi-line fields.
type Reader struct {
	src      io.Reader
	srcErr   error  // first error from src, io.EOF included
	buf      []byte // buf[pos:end] is read but not yet scanned
	pos, end int
	n        int   // records returned so far, the header included
	lastTS   int64 // of the previous record
	err      error // what Next returned when it failed; it stays failed

	fields [csvFields][]byte // the current row; aliases buf or unq
	unq    []byte            // a row with quoted fields, quotes removed
	protos map[string]string // protocol bytes → the one string handed out for them
	// recent holds the first protocols handed out, compared byte for byte
	// before protos is asked; a trace has a handful.
	recent  [8]string
	nRecent int
}

// NewReader returns a Reader over r. The header is read by the first Next.
func NewReader(r io.Reader) *Reader {
	return &Reader{
		src:    r,
		buf:    make([]byte, readBufSize),
		lastTS: math.MinInt64,
		protos: make(map[string]string),
	}
}

// Next reads the next record into rec. It returns io.EOF after the last one,
// and any other error again on every later call. rec.Vals is reused when it
// has room for the six values and allocated otherwise; the protocol string is
// never an alias of the read buffer, so a filled record stays valid for as
// long as the caller keeps it.
func (r *Reader) Next(rec *Record) error {
	if r.err == nil {
		r.err = r.next(rec)
	}
	return r.err
}

func (r *Reader) next(rec *Record) error {
	if r.n == 0 {
		nf, err := r.scan()
		if err != nil {
			return fmt.Errorf("trace: read header: %w", err)
		}
		if nf != csvFields {
			return fmt.Errorf("trace: header has %d columns, want %d", nf, csvFields)
		}
		r.n = 1
	}
	if !r.fast(rec) {
		nf, err := r.scan()
		if err == io.EOF {
			return io.EOF
		}
		if err == nil && nf != csvFields {
			err = errFieldCount
		}
		if err == nil {
			err = r.parse(rec)
		}
		if err != nil {
			return fmt.Errorf("trace: line %d: %w", r.n+1, err)
		}
	}
	if rec.TS < r.lastTS {
		return fmt.Errorf("trace: line %d: timestamp %d regresses before %d", r.n+1, rec.TS, r.lastTS)
	}
	r.lastTS = rec.TS
	r.n++
	return nil
}

// fast parses the row at the head of the buffer in one left-to-right pass
// when the row is plain: link, ts, payload, src and dst are runs of 1 to 18
// digits (no sign, so no overflow), duration is a decimal that floatPrefix
// takes, protocol holds no byte at or below '"' (a quote, "\r", "\n", a
// space or a control byte), and a "\n" follows dst. It then fills rec,
// consumes the row and returns true. Otherwise — a quote, a sign, a longer
// number, a blank line, "\r\n", a field count other than seven, or a row the
// buffer does not yet hold whole — it touches nothing and returns false, and
// the row goes to scan and parse, which own every error.
func (r *Reader) fast(rec *Record) bool {
	b := r.buf[r.pos:r.end]
	link, i := digitField(b, 0, ',')
	if i == 0 || int64(int(link)) != link {
		return false
	}
	ts, i := digitField(b, i, ',')
	if i == 0 {
		return false
	}
	dur, n, ok := floatPrefix(b[i:])
	i += n
	if !ok || i == len(b) || b[i] != ',' { // also declines a quote or a line break
		return false
	}
	i++
	j := i // protocol is b[i:j]
	for ; j < len(b) && b[j] != ','; j++ {
		if b[j] <= '"' { // a quote, "\r", "\n", a space or a control byte
			return false
		}
	}
	if j == len(b) {
		return false
	}
	proto := b[i:j]
	payload, i := digitField(b, j+1, ',')
	if i == 0 {
		return false
	}
	src, i := digitField(b, i, ',')
	if i == 0 {
		return false
	}
	dst, i := digitField(b, i, '\n')
	if i == 0 {
		return false
	}
	r.pos += i
	// The same stores as parse's, written out: a call here costs a few
	// percent of the row.
	vals := rec.Vals
	if cap(vals) < numCols {
		vals = make([]tuple.Value, numCols)
	}
	vals = vals[:numCols]
	vals[ColTS] = tuple.Int(ts)
	vals[ColDuration] = tuple.Float(dur)
	vals[ColProtocol] = tuple.String_(r.protocol(proto))
	vals[ColPayload] = tuple.Int(payload)
	vals[ColSrc] = tuple.Int(src)
	vals[ColDst] = tuple.Int(dst)
	rec.Link, rec.TS, rec.Vals = int(link), ts, vals
	return true
}

// digitField reads the field that starts at b[i] as 1 to 18 decimal digits
// ended by sep, a value no int64 overflows on. It returns the value and the
// index after sep, or 0, 0 for anything else.
func digitField(b []byte, i int, sep byte) (int64, int) {
	start := i
	var n int64
	for ; i < len(b); i++ {
		d := b[i] - '0'
		if d > 9 {
			if b[i] != sep || i == start || i-start > 18 {
				return 0, 0
			}
			return n, i + 1
		}
		n = n*10 + int64(d)
	}
	return 0, 0
}

// parse converts the scanned row into rec, which it touches only on success.
// A field the byte-level parsers decline goes to strconv, whose verdict and
// error text are the contract.
func (r *Reader) parse(rec *Record) error {
	f := &r.fields
	link, ok := parseInt(f[0])
	if !ok || int64(int(link)) != link {
		l, err := strconv.Atoi(string(f[0]))
		if err != nil {
			return fmt.Errorf("link: %w", err)
		}
		link = int64(l)
	}
	ts, err := intField(f[1], "ts")
	if err != nil {
		return err
	}
	dur, ok := parseFloat(f[2])
	if !ok {
		if dur, err = strconv.ParseFloat(string(f[2]), 64); err != nil {
			return fmt.Errorf("duration: %w", err)
		}
	}
	payload, err := intField(f[4], "payload")
	if err != nil {
		return err
	}
	src, err := intField(f[5], "src")
	if err != nil {
		return err
	}
	dst, err := intField(f[6], "dst")
	if err != nil {
		return err
	}
	if link < 0 {
		return fmt.Errorf("trace: negative link %d", link)
	}
	vals := rec.Vals
	if cap(vals) < numCols {
		vals = make([]tuple.Value, numCols)
	}
	vals = vals[:numCols]
	vals[ColTS] = tuple.Int(ts)
	vals[ColDuration] = tuple.Float(dur)
	vals[ColProtocol] = tuple.String_(r.protocol(f[3]))
	vals[ColPayload] = tuple.Int(payload)
	vals[ColSrc] = tuple.Int(src)
	vals[ColDst] = tuple.Int(dst)
	rec.Link, rec.TS, rec.Vals = int(link), ts, vals
	return nil
}

func intField(b []byte, name string) (int64, error) {
	if v, ok := parseInt(b); ok {
		return v, nil
	}
	v, err := strconv.ParseInt(string(b), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", name, err)
	}
	return v, nil
}

// protocol returns b as a string that does not alias the read buffer: the one
// allocated when the reader first met these bytes.
func (r *Reader) protocol(b []byte) string {
	for _, s := range r.recent[:r.nRecent] {
		if string(b) == s { // the conversion in a comparison does not allocate
			return s
		}
	}
	if s, ok := r.protos[string(b)]; ok { // nor does one in a map index
		return s
	}
	s := string(b)
	if len(r.protos) < maxProtocols {
		r.protos[s] = s
	}
	if r.nRecent < len(r.recent) {
		r.recent[r.nRecent] = s
		r.nRecent++
	}
	return s
}

// parseInt parses b as strconv.ParseInt(string(b), 10, 64) does, or declines:
// an optional sign, then decimal digits only, within the int64 range.
func parseInt(b []byte) (int64, bool) {
	neg := false
	if len(b) > 0 && (b[0] == '-' || b[0] == '+') {
		neg = b[0] == '-'
		b = b[1:]
	}
	if len(b) == 0 {
		return 0, false
	}
	const cutoff = (1 << 63) / 10 // a larger prefix overflows on the next digit
	var n uint64
	for _, c := range b {
		d := uint64(c) - '0'
		if d > 9 || n > cutoff {
			return 0, false
		}
		n = n*10 + d
	}
	if neg {
		if n > 1<<63 {
			return 0, false
		}
		return -int64(n), true
	}
	if n > 1<<63-1 {
		return 0, false
	}
	return int64(n), true
}

// pow10 are the powers of ten a float64 holds exactly.
var pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// parseFloat parses a plain decimal — sign, digits with an optional point,
// optional exponent — by Clinger's fast path: with at most 15 significant
// digits and a decimal exponent within ±22 the mantissa and the power of ten
// are both exact float64s, so one multiplication or division rounds once and
// gives the bits strconv.ParseFloat gives. It declines everything else (long
// mantissas, large exponents, hex, "Inf", "NaN", underscores, malformed
// input).
func parseFloat(b []byte) (float64, bool) {
	f, n, ok := floatPrefix(b)
	return f, ok && n == len(b)
}

// floatPrefix is parseFloat for the longest plain decimal at the head of b: it
// also returns that decimal's length, and leaves to the caller what follows.
func floatPrefix(b []byte) (float64, int, bool) {
	i := 0
	neg := false
	if len(b) > 0 && (b[0] == '-' || b[0] == '+') {
		neg = b[0] == '-'
		i = 1
	}
	var mant uint64
	digits, sig, exp := 0, 0, 0
	point := false
	for ; i < len(b); i++ {
		c := b[i]
		if c == '.' && !point {
			point = true
			continue
		}
		if c < '0' || c > '9' {
			break
		}
		digits++
		if point {
			exp--
		}
		if c == '0' && sig == 0 {
			continue // leading zeros are not significant
		}
		if sig++; sig > 15 {
			return 0, 0, false
		}
		mant = mant*10 + uint64(c-'0')
	}
	if digits == 0 {
		return 0, 0, false
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		eneg := false
		if i < len(b) && (b[i] == '-' || b[i] == '+') {
			eneg = b[i] == '-'
			i++
		}
		start, e := i, 0
		for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
			if e > 1000 {
				return 0, 0, false
			}
			e = e*10 + int(b[i]-'0')
		}
		if i == start {
			return 0, 0, false
		}
		if eneg {
			e = -e
		}
		exp += e
	}
	f := float64(mant)
	switch {
	case exp > 0 && exp < len(pow10):
		f *= pow10[exp]
	case exp < 0 && -exp < len(pow10):
		f /= pow10[-exp]
	case exp != 0:
		return 0, 0, false
	}
	if neg {
		f = -f
	}
	return f, i, true
}

// scan reads the next row into r.fields and returns its field count; fields
// past the seventh are counted but not kept. It returns io.EOF at the end of
// the input.
func (r *Reader) scan() (int, error) {
	var line []byte
	for len(line) == lengthNL(line) { // skip blank lines
		var err error
		if line, err = r.line(); err != nil {
			return 0, err
		}
	}
	// One pass splits at the commas and notices a quote; every byte of
	// interest sorts at or below ',' and the digits and letters above it.
	end := len(line) - lengthNL(line)
	n, start := 0, 0
	for i, c := range line[:end] {
		if c > ',' {
			continue
		}
		if c == '"' {
			return r.scanQuoted(line)
		}
		if c == ',' {
			if n < csvFields {
				r.fields[n] = line[start:i]
			}
			n++
			start = i + 1
		}
	}
	if n < csvFields {
		r.fields[n] = line[start:end]
	}
	return n + 1, nil
}

// scanQuoted is scan for a row that holds a quote: fields are copied into
// r.unq with their quoting removed, since a quoted field need not be
// contiguous in the input and may continue on lines not yet read.
func (r *Reader) scanQuoted(line []byte) (int, error) {
	r.unq = r.unq[:0]
	var ends [csvFields]int
	n := 0
	endField := func() {
		if n < csvFields {
			ends[n] = len(r.unq)
		}
		n++
	}
row:
	for {
		if len(line) == 0 || line[0] != '"' {
			field := line[:len(line)-lengthNL(line)]
			i := bytes.IndexByte(line, ',')
			if i >= 0 {
				field = line[:i]
			}
			if bytes.IndexByte(field, '"') >= 0 {
				return 0, errBareQuote
			}
			r.unq = append(r.unq, field...)
			endField()
			if i < 0 {
				break row
			}
			line = line[i+1:]
			continue
		}
		line = line[1:]
		for {
			i := bytes.IndexByte(line, '"')
			switch {
			case i >= 0:
				r.unq = append(r.unq, line[:i]...)
				line = line[i+1:]
				switch {
				case len(line) > 0 && line[0] == '"':
					r.unq = append(r.unq, '"')
					line = line[1:]
				case len(line) > 0 && line[0] == ',':
					line = line[1:]
					endField()
					continue row
				case len(line) == lengthNL(line):
					endField()
					break row
				default:
					return 0, errQuote
				}
			case len(line) > 0:
				// The field continues on the next line.
				r.unq = append(r.unq, line...)
				var err error
				if line, err = r.line(); err == io.EOF {
					return 0, errQuote
				} else if err != nil {
					return 0, err
				}
			default:
				return 0, errQuote // the input ended right after the opening quote
			}
		}
	}
	start := 0
	for i := 0; i < min(n, csvFields); i++ {
		r.fields[i] = r.unq[start:ends[i]]
		start = ends[i]
	}
	return n, nil
}

// lengthNL is 1 when b ends with a newline and 0 otherwise.
func lengthNL(b []byte) int {
	if len(b) > 0 && b[len(b)-1] == '\n' {
		return 1
	}
	return 0
}

// line returns the next input line with its "\n"; only a last line that the
// input ends without one comes back bare. "\r\n" is folded to "\n" and a "\r"
// right before the end of the input is dropped. The result aliases the read
// buffer until the next call. At the end of the input line returns io.EOF, or
// the source's error if it failed.
func (r *Reader) line() ([]byte, error) {
	scanned := 0 // bytes after pos known to hold no newline
	for {
		if i := bytes.IndexByte(r.buf[r.pos+scanned:r.end], '\n'); i >= 0 {
			line := r.buf[r.pos : r.pos+scanned+i+1]
			r.pos += len(line)
			if n := len(line); n >= 2 && line[n-2] == '\r' {
				line[n-2] = '\n'
				line = line[:n-1]
			}
			return line, nil
		}
		scanned = r.end - r.pos
		if r.srcErr == io.EOF && scanned > 0 {
			line := r.buf[r.pos:r.end]
			r.pos = r.end
			if line[len(line)-1] == '\r' {
				line = line[:len(line)-1]
			}
			return line, nil
		}
		if r.srcErr != nil {
			return nil, r.srcErr
		}
		r.fill()
	}
}

// fill reads more input behind the unscanned bytes, first moving them to the
// front of the buffer and doubling it when a single line fills it.
func (r *Reader) fill() {
	if r.pos > 0 {
		r.end = copy(r.buf, r.buf[r.pos:r.end])
		r.pos = 0
	}
	if r.end == len(r.buf) {
		r.buf = append(r.buf, make([]byte, len(r.buf))...)
	}
	for tries := 0; tries < 100; tries++ {
		n, err := r.src.Read(r.buf[r.end:])
		r.end += n
		if n > 0 || err != nil {
			r.srcErr = err
			return
		}
	}
	r.srcErr = io.ErrNoProgress
}

// countLines returns the number of newlines in the input when the source can
// be rewound, and 0 when it cannot. It must run before the first Next.
func (r *Reader) countLines() (int, error) {
	s, ok := r.src.(io.Seeker)
	if !ok {
		return 0, nil
	}
	start, err := s.Seek(0, io.SeekCurrent)
	if err != nil {
		return 0, nil // a pipe behind an *os.File
	}
	lines := 0
	for {
		n, err := r.src.Read(r.buf)
		lines += bytes.Count(r.buf[:n], []byte{'\n'})
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, err
		}
	}
	_, err = s.Seek(start, io.SeekStart)
	return lines, err
}

// slabRecords is how many records' values ReadCSV allocates at a time.
const slabRecords = 256

// ReadCSV reads a whole trace file written by WriteCSV (or hand-converted
// from a real archive trace into the same layout) with a Reader; see Reader
// for what is accepted. When r can seek, its lines are counted first so the
// result is allocated once.
//
// The records' Vals are carved from slabs of slabRecords records (≈ 60 KB),
// not allocated one by one. An engine on the row path retains the Vals of the
// tuples it stores, so keeping a single record alive keeps its whole slab
// alive — but never more than that one slab.
func ReadCSV(r io.Reader) ([]Record, error) {
	rd := NewReader(r)
	lines, err := rd.countLines()
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	out := make([]Record, 0, lines)
	var slab []tuple.Value
	for {
		if len(slab) == 0 {
			slab = make([]tuple.Value, slabRecords*numCols)
		}
		rec := Record{Vals: slab[:numCols:numCols]}
		if err := rd.Next(&rec); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, err
		}
		slab = slab[numCols:]
		out = append(out, rec)
	}
}
