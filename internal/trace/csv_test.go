package trace

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/tuple"
)

// oracleWriteCSV and oracleReadCSV are the encoding/csv implementations the
// byte-level ones replaced, kept verbatim as the reference the tests and fuzz
// targets compare against.
func oracleWriteCSV(w io.Writer, recs []Record) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"link", "ts", "duration", "protocol", "payload", "src", "dst"}); err != nil {
		return err
	}
	for _, r := range recs {
		row := []string{
			strconv.Itoa(r.Link),
			strconv.FormatInt(r.TS, 10),
			strconv.FormatFloat(r.Vals[ColDuration].F(), 'g', -1, 64),
			r.Vals[ColProtocol].S,
			strconv.FormatInt(r.Vals[ColPayload].I, 10),
			strconv.FormatInt(r.Vals[ColSrc].I, 10),
			strconv.FormatInt(r.Vals[ColDst].I, 10),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// oracleReadCSV also reports the "line" of its error (0 for the header), so
// the fuzz target can require the same record number where texts differ.
func oracleReadCSV(r io.Reader) (recs []Record, errLine int, err error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, 0, fmt.Errorf("trace: read header: %w", err)
	}
	if len(header) != csvFields {
		return nil, 0, fmt.Errorf("trace: header has %d columns, want %d", len(header), csvFields)
	}
	var out []Record
	lastTS := int64(math.MinInt64) // the first record has no predecessor to regress before
	for line := 2; ; line++ {
		row, err := cr.Read()
		if err == io.EOF {
			return out, 0, nil
		}
		if err != nil {
			return nil, line, fmt.Errorf("trace: line %d: %w", line, err)
		}
		rec, err := oracleParseRow(row)
		if err != nil {
			return nil, line, fmt.Errorf("trace: line %d: %w", line, err)
		}
		if rec.TS < lastTS {
			return nil, line, fmt.Errorf("trace: line %d: timestamp %d regresses before %d", line, rec.TS, lastTS)
		}
		lastTS = rec.TS
		out = append(out, rec)
	}
}

func oracleParseRow(row []string) (Record, error) {
	link, err := strconv.Atoi(row[0])
	if err != nil {
		return Record{}, fmt.Errorf("link: %w", err)
	}
	ts, err := strconv.ParseInt(row[1], 10, 64)
	if err != nil {
		return Record{}, fmt.Errorf("ts: %w", err)
	}
	dur, err := strconv.ParseFloat(row[2], 64)
	if err != nil {
		return Record{}, fmt.Errorf("duration: %w", err)
	}
	payload, err := strconv.ParseInt(row[4], 10, 64)
	if err != nil {
		return Record{}, fmt.Errorf("payload: %w", err)
	}
	src, err := strconv.ParseInt(row[5], 10, 64)
	if err != nil {
		return Record{}, fmt.Errorf("src: %w", err)
	}
	dst, err := strconv.ParseInt(row[6], 10, 64)
	if err != nil {
		return Record{}, fmt.Errorf("dst: %w", err)
	}
	rec := Record{
		Link: link,
		TS:   ts,
		Vals: []tuple.Value{
			tuple.Int(ts), tuple.Float(dur), tuple.String_(row[3]),
			tuple.Int(payload), tuple.Int(src), tuple.Int(dst),
		},
	}
	return rec, rec.Validate()
}

// isCSVError reports whether the oracle's error is encoding/csv's finding, not
// a field's or the trace's.
func isCSVError(err error) bool {
	var pe *csv.ParseError
	return errors.As(err, &pe)
}

const hdr = "link,ts,duration,protocol,payload,src,dst\n"

func TestReadCSVErrors(t *testing.T) {
	cases := []struct{ name, data, want string }{
		{"empty", "", "trace: read header: EOF"},
		{"bad-header", "a,b\n", "trace: header has 2 columns, want 7"},
		{"header-bare-quote", "li\"nk,ts,duration,protocol,payload,src,dst\n", `trace: read header: bare " in non-quoted field`},
		{"bad-link", hdr + "x,0,1,ftp,1,1,1\n", `trace: line 2: link: strconv.Atoi: parsing "x": invalid syntax`},
		{"bad-ts", hdr + "0,x,1,ftp,1,1,1\n", `trace: line 2: ts: strconv.ParseInt: parsing "x": invalid syntax`},
		{"bad-duration", hdr + "0,0,x,ftp,1,1,1\n", `trace: line 2: duration: strconv.ParseFloat: parsing "x": invalid syntax`},
		{"bad-payload", hdr + "0,0,1,ftp,x,1,1\n", `trace: line 2: payload: strconv.ParseInt: parsing "x": invalid syntax`},
		{"bad-src", hdr + "0,0,1,ftp,1,x,1\n", `trace: line 2: src: strconv.ParseInt: parsing "x": invalid syntax`},
		{"bad-dst", hdr + "0,0,1,ftp,1,1,x\n", `trace: line 2: dst: strconv.ParseInt: parsing "x": invalid syntax`},
		{"ts-regression", hdr + "0,5,1,ftp,1,1,1\n0,4,1,ftp,1,1,1\n", "trace: line 3: timestamp 4 regresses before 5"},
		{"negative-link", hdr + "-1,0,1,ftp,1,1,1\n", "trace: line 2: trace: negative link -1"},
		{"too-few-fields", hdr + "0,0,1,ftp,1,1,1\n0,1,1,ftp,1,1\n", "trace: line 3: wrong number of fields"},
		{"too-many-fields", hdr + "0,0,1,ftp,1,1,1,9\n", "trace: line 2: wrong number of fields"},
		{"int-overflow", hdr + "0,9223372036854775808,1,ftp,1,1,1\n", `trace: line 2: ts: strconv.ParseInt: parsing "9223372036854775808": value out of range`},
		{"link-overflow", hdr + "99999999999999999999,0,1,ftp,1,1,1\n", `trace: line 2: link: strconv.Atoi: parsing "99999999999999999999": value out of range`},
		{"float-overflow", hdr + "0,0,1e999,ftp,1,1,1\n", `trace: line 2: duration: strconv.ParseFloat: parsing "1e999": value out of range`},
		{"empty-int", hdr + "0,0,1,ftp,,1,1\n", `trace: line 2: payload: strconv.ParseInt: parsing "": invalid syntax`},
		{"empty-float", hdr + "0,0,,ftp,1,1,1\n", `trace: line 2: duration: strconv.ParseFloat: parsing "": invalid syntax`},
		{"trailing-cr", hdr + "0,0,1,ftp,1,1,1\r\r\n", `trace: line 2: dst: strconv.ParseInt: parsing "1\r": invalid syntax`},
		{"bare-quote", hdr + "0,0,1,f\"tp,1,1,1\n", `trace: line 2: bare " in non-quoted field`},
		{"quote-then-text", hdr + "0,0,1,\"ftp\"x,1,1,1\n", `trace: line 2: extraneous or missing " in quoted field`},
		{"unterminated-quote", hdr + "0,0,1,ftp,1,1,1\n0,1,1,\"ftp,1,1,1\n", `trace: line 3: extraneous or missing " in quoted field`},
		{"blank-lines-are-not-records", hdr + "\n\r\n0,0,1,ftp,1,1,1\n\n0,x,1,ftp,1,1,1\n", `trace: line 3: ts: strconv.ParseInt: parsing "x": invalid syntax`},
		{"multi-line-field-is-one-record", hdr + "0,0,1,\"a\nb\",1,1,1\n0,x,1,ftp,1,1,1\n", `trace: line 3: ts: strconv.ParseInt: parsing "x": invalid syntax`},
	}
	for _, c := range cases {
		recs, err := ReadCSV(strings.NewReader(c.data))
		if err == nil || recs != nil {
			t.Errorf("%s: got %d records and error %v, want no records and an error", c.name, len(recs), err)
			continue
		}
		if err.Error() != c.want {
			t.Errorf("%s:\n got %s\nwant %s", c.name, err, c.want)
		}
		// The texts that come from field parsing are the oracle's, unchanged.
		if _, _, oerr := oracleReadCSV(strings.NewReader(c.data)); oerr == nil {
			t.Errorf("%s: the encoding/csv reader accepts it", c.name)
		} else if !isCSVError(oerr) && oerr.Error() != c.want {
			t.Errorf("%s: the encoding/csv reader said %s", c.name, oerr)
		}
	}
}

func TestReadCSVAccepts(t *testing.T) {
	row := func(link int, ts int64, dur float64, proto string, payload, src, dst int64) Record {
		return Record{Link: link, TS: ts, Vals: []tuple.Value{tuple.Int(ts), tuple.Float(dur),
			tuple.String_(proto), tuple.Int(payload), tuple.Int(src), tuple.Int(dst)}}
	}
	cases := []struct {
		name, data string
		want       []Record
	}{
		{"header-only", hdr, nil},
		{"header-without-newline", strings.TrimSuffix(hdr, "\n"), nil},
		{"any-seven-column-header", "a,b,c,d,e,f,g\n1,2,3,x,4,5,6\n", []Record{row(1, 2, 3, "x", 4, 5, 6)}},
		{"missing-final-newline", hdr + "0,0,1.5,ftp,1,2,3\n1,0,2.25,telnet,4,5,6", []Record{
			row(0, 0, 1.5, "ftp", 1, 2, 3), row(1, 0, 2.25, "telnet", 4, 5, 6)}},
		{"crlf", "link,ts,duration,protocol,payload,src,dst\r\n0,0,1,ftp,1,2,3\r\n1,1,2,http,4,5,6\r", []Record{
			row(0, 0, 1, "ftp", 1, 2, 3), row(1, 1, 2, "http", 4, 5, 6)}},
		{"blank-lines", "\n" + hdr + "\n\r\n0,0,1,ftp,1,2,3\n\n", []Record{row(0, 0, 1, "ftp", 1, 2, 3)}},
		{"quoted", hdr + "0,0,1,\"a,\"\"b\"\"\r\nc\",1,2,3\n\"1\",\"7\",\"2.5\",\"\",\"4\",\"5\",\"6\"", []Record{
			row(0, 0, 1, "a,\"b\"\nc", 1, 2, 3), row(1, 7, 2.5, "", 4, 5, 6)}},
		{"number-forms", hdr + "+0,-5,1e-05,x,+3,-0,9223372036854775807\n0,-5,-0,x,-9223372036854775808,007,0\n" +
			"0,0,.5,x,0,0,0\n0,0,5.,x,0,0,0\n0,0,0x1p-2,x,0,0,0\n0,0,1_0.5,x,0,0,0\n0,0,123456789012345678901234567890,x,0,0,0\n" +
			"0,0,4.9e-324,x,0,0,0\n0,0,1.7976931348623157e308,x,0,0,0\n", []Record{
			row(0, -5, 1e-05, "x", 3, 0, math.MaxInt64), row(0, -5, math.Copysign(0, -1), "x", math.MinInt64, 7, 0),
			row(0, 0, .5, "x", 0, 0, 0), row(0, 0, 5, "x", 0, 0, 0), row(0, 0, 0.25, "x", 0, 0, 0),
			row(0, 0, 10.5, "x", 0, 0, 0), row(0, 0, 123456789012345678901234567890, "x", 0, 0, 0),
			row(0, 0, 4.9e-324, "x", 0, 0, 0), row(0, 0, math.MaxFloat64, "x", 0, 0, 0)}},
	}
	for _, c := range cases {
		got, err := ReadCSV(strings.NewReader(c.data))
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if msg := diffRecords(got, c.want); msg != "" {
			t.Errorf("%s: %s", c.name, msg)
		}
		if oracle, _, err := oracleReadCSV(strings.NewReader(c.data)); err != nil || diffRecords(oracle, c.want) != "" {
			t.Errorf("%s: the encoding/csv reader disagrees with the table: %v %v", c.name, oracle, err)
		}
	}
	// NaN and the infinities parse, but NaN != NaN keeps them out of the table.
	got, err := ReadCSV(strings.NewReader(hdr + "0,0,NaN,x,0,0,0\n0,0,-Inf,x,0,0,0\n0,0,+infinity,x,0,0,0\n"))
	if err != nil || len(got) != 3 || !math.IsNaN(got[0].Vals[ColDuration].F()) ||
		!math.IsInf(got[1].Vals[ColDuration].F(), -1) || !math.IsInf(got[2].Vals[ColDuration].F(), 1) {
		t.Errorf("NaN/Inf: %v %v", got, err)
	}
}

// diffRecords compares bit for bit (so -0 differs from 0 and NaN equals NaN):
// == on a Value compares a float's bits, which it keeps in I.
func diffRecords(got, want []Record) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d records, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Link != w.Link || g.TS != w.TS || len(g.Vals) != len(w.Vals) {
			return fmt.Sprintf("record %d: %v, want %v", i, g, w)
		}
		for j := range g.Vals {
			a, b := g.Vals[j], w.Vals[j]
			if !a.Identical(b) {
				return fmt.Sprintf("record %d column %d: %#v, want %#v", i, j, a, b)
			}
		}
	}
	return ""
}

// oneByteReader hands out its input a byte at a time, so every buffer
// boundary falls inside a field, a quote pair or a "\r\n".
type oneByteReader struct{ s string }

func (r *oneByteReader) Read(p []byte) (int, error) {
	if len(r.s) == 0 {
		return 0, io.EOF
	}
	p[0] = r.s[0]
	r.s = r.s[1:]
	return 1, nil
}

func TestReaderStreams(t *testing.T) {
	recs := Generate(Config{Tuples: 3000, Seed: 9})
	recs[17].Vals[ColProtocol] = tuple.String_("multi\nline, \"quoted\"")
	recs[18].Vals[ColProtocol] = tuple.String_(strings.Repeat("long", 3*readBufSize/4)) // outgrows the read buffer
	var buf bytes.Buffer
	if err := WriteCSV(&buf, recs); err != nil {
		t.Fatal(err)
	}
	for name, src := range map[string]io.Reader{
		"whole":     bytes.NewReader(buf.Bytes()),
		"bytewise":  &oneByteReader{s: buf.String()},
		"no-seeker": bytes.NewBuffer(buf.Bytes()),
	} {
		rd := NewReader(src)
		var rec Record // one record, refilled: Next must not need a fresh one
		for i := 0; ; i++ {
			err := rd.Next(&rec)
			if err == io.EOF {
				if i != len(recs) {
					t.Errorf("%s: %d records, want %d", name, i, len(recs))
				}
				break
			}
			if err != nil {
				t.Fatalf("%s: record %d: %v", name, i, err)
			}
			if msg := diffRecords([]Record{rec}, recs[i:i+1]); msg != "" {
				t.Fatalf("%s: record %d: %s", name, i, msg)
			}
		}
		if err := rd.Next(&rec); err != io.EOF {
			t.Errorf("%s: Next after EOF: %v", name, err)
		}
	}
}

func TestReaderErrorIsSticky(t *testing.T) {
	rd := NewReader(strings.NewReader(hdr + "0,0,1,ftp,1,1,1\n0,x,1,ftp,1,1,1\n0,2,1,ftp,1,1,1\n"))
	var rec Record
	if err := rd.Next(&rec); err != nil {
		t.Fatal(err)
	}
	first := rd.Next(&rec)
	if first == nil || rd.Next(&rec) != first {
		t.Errorf("Next after a failure: %v then %v", first, rd.Next(&rec))
	}
	if rec.TS != 0 {
		t.Errorf("a failed Next changed the record: %v", rec)
	}
}

type failingReader struct {
	data string
	err  error
}

func (r *failingReader) Read(p []byte) (int, error) {
	if r.data == "" {
		return 0, r.err
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

func TestReaderSourceError(t *testing.T) {
	boom := errors.New("boom")
	_, err := ReadCSV(&failingReader{data: hdr + "0,0,1,ftp,1,1,1\n0,1,1,ft", err: boom})
	if !errors.Is(err, boom) || err.Error() != "trace: line 3: boom" {
		t.Errorf("got %v", err)
	}
}

// The protocol strings a Reader hands out must survive its buffer being
// overwritten by later reads.
func TestReaderProtocolDoesNotAliasBuffer(t *testing.T) {
	var b strings.Builder
	b.WriteString(hdr)
	for i := 0; i < 5000; i++ {
		fmt.Fprintf(&b, "0,%d,1,p%d,1,1,1\n", i, i%3000)
	}
	recs, err := ReadCSV(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range recs {
		if want := fmt.Sprintf("p%d", i%3000); r.Vals[ColProtocol].S != want {
			t.Fatalf("record %d: protocol %q, want %q", i, r.Vals[ColProtocol].S, want)
		}
	}
}

func TestWriteCSVMatchesEncodingCSV(t *testing.T) {
	recs := Generate(Config{Tuples: 2000, Seed: 11})
	for i, p := range []string{"", "a,b", `say "hi"`, "two\nlines", "cr\rlf\r\n", " leading", "trailing ", "\tTab",
		"\u00a0nbsp", "\u0085nel", "\u2003em", "\x85raw", `\.`, `\.x`, "\"", ",", "日本"} {
		recs[i*3].Vals[ColProtocol] = tuple.String_(p)
	}
	recs[1].Vals[ColDuration] = tuple.Float(1e-05)
	recs[2].Vals[ColDuration] = tuple.Float(1e21)
	recs[4].Vals[ColDuration] = tuple.Float(math.Inf(1))
	recs[5].Vals[ColPayload].I = math.MinInt64
	var got, want bytes.Buffer
	if err := WriteCSV(&got, recs); err != nil {
		t.Fatal(err)
	}
	if err := oracleWriteCSV(&want, recs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		g, w := strings.Split(got.String(), "\n"), strings.Split(want.String(), "\n")
		for i := range min(len(g), len(w)) {
			if g[i] != w[i] {
				t.Fatalf("output line %d: %q, encoding/csv writes %q", i+1, g[i], w[i])
			}
		}
		t.Fatalf("output has %d lines, encoding/csv writes %d", len(g), len(w))
	}
}

type failingWriter struct{ err error }

func (w failingWriter) Write([]byte) (int, error) { return 0, w.err }

func TestWriteCSVReportsWriteError(t *testing.T) {
	boom := errors.New("boom")
	if err := WriteCSV(failingWriter{boom}, Generate(Config{Tuples: 10, Seed: 1})); !errors.Is(err, boom) {
		t.Errorf("got %v", err)
	}
}

func TestRecordValidateAllocFree(t *testing.T) {
	rec := Generate(Config{Tuples: 1, Seed: 1})[0]
	if n := testing.AllocsPerRun(100, func() {
		if err := rec.Validate(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Validate allocates %v times per call", n)
	}
	if Schema() != Schema() {
		t.Error("Schema builds a new schema per call")
	}
}

func traceBytes(t testing.TB, n int) []byte {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, Generate(Config{Tuples: n, Seed: 12})); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestReadCSVAllocBudget(t *testing.T) {
	const n = 64 << 10
	data := traceBytes(t, n)
	allocs := testing.AllocsPerRun(5, func() {
		recs, err := ReadCSV(bytes.NewReader(data))
		if err != nil || len(recs) != n {
			t.Fatalf("%d records, %v", len(recs), err)
		}
	})
	if perRec := allocs / n; perRec >= 0.05 {
		t.Errorf("ReadCSV allocates %.4f times per record (%v per call), budget 0.05", perRec, allocs)
	}
}

func TestReadCSVSlabPinsAtMostOneSlab(t *testing.T) {
	data := traceBytes(t, 64<<10)
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	kept := func() []tuple.Value { // the records die with this call, one's values survive it
		recs, err := ReadCSV(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		return recs[len(recs)/2].Vals
	}()
	const slabBytes = slabRecords * numCols * int64(unsafe.Sizeof(tuple.Value{}))
	if grown := int64(heap()) - int64(before); grown > 2*slabBytes {
		t.Errorf("one retained record keeps %d bytes alive, more than two slabs (%d)", grown, 2*slabBytes)
	}
	runtime.KeepAlive(kept)
	runtime.KeepAlive(data)
}

func BenchmarkReadCSV(b *testing.B) {
	const n = 64 << 10
	data := traceBytes(b, n)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadCSV(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/rec")
}

// BenchmarkReaderNext is the parse alone: Next into one reused record, with
// no slab to allocate and no records for the collector to trace.
func BenchmarkReaderNext(b *testing.B) {
	const n = 64 << 10
	data := traceBytes(b, n)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	var rec Record
	for i := 0; i < b.N; i++ {
		rd := NewReader(bytes.NewReader(data))
		got := 0
		for ; ; got++ {
			if err := rd.Next(&rec); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
		}
		if got != n {
			b.Fatalf("%d records, want %d", got, n)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/rec")
}

func BenchmarkWriteCSV(b *testing.B) {
	recs := Generate(Config{Tuples: 64 << 10, Seed: 12})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteCSV(io.Discard, recs); err != nil {
			b.Fatal(err)
		}
	}
}

func FuzzTraceReader(f *testing.F) {
	f.Add(traceBytes(f, 50))
	for _, s := range []string{
		"", hdr, strings.TrimSuffix(hdr, "\n"), "a,b\n",
		hdr + "0,0,1,\"a,\"\"b\"\"\r\nc\",1,2,3\n\"1\",\"7\",\"2.5\",\"\",\"4\",\"5\",\"6\"",
		"link,ts,duration,protocol,payload,src,dst\r\n0,0,1,ftp,1,2,3\r\n1,1,2,http,4,5,6\r",
		"\n" + hdr + "\n\r\n0,0,1,ftp,1,2,3\n\n0,0,1,ftp,1,2,3\r\r\n",
		hdr + "+0,-5,1e-05,x,+3,-0,9223372036854775807\n0,-5,-0,x,-9223372036854775808,007,0\n",
		hdr + "0,0,NaN,x,0,0,0\n0,0,-Inf,x,0,0,0\n0,0,0x1p-2,x,0,0,0\n0,0,1_0,x,0,0,0\n",
		hdr + "0,9223372036854775808,1,x,0,0,0\n", hdr + "0,0,1234567890123456789,x,1234567890123456789,0,0\n",
		hdr + "0,0,1,f\"tp,1,1,1\n", hdr + "0,0,1,\"ftp\"x,1,1,1\n", hdr + "0,0,1,\"ftp,1,1,1\n", hdr + "0,0,1,\"",
		hdr + "0,5,1,ftp,1,1,1\n0,4,1,ftp,1,1,1\n", hdr + "-1,0,1,ftp,1,1,1\n", hdr + "0,0,1,ftp,1,1\n",
		// The edges of the one-pass parse of a plain row (Reader.fast).
		hdr + "123456789012345678,123456789012345678,1,x,123456789012345678,123456789012345678,123456789012345678\n",
		hdr + "1234567890123456789,1234567890123456789,1,x,1234567890123456789,1234567890123456789,1234567890123456789\n",
		hdr + "0,9999999999999999999,1,x,0,0,0\n", hdr + "000000000000000000001,00,0.0,x,0000,00000000000000000007,0\n",
		hdr + "+1,0,1,x,0,0,0\n0,+1,+1,x,+0,-0,-0\n0,1,-0,x,-1,0,0\n", hdr + "0,0,1,,0,0,0\n0,0,1,,0,0,0\n",
		hdr + "0,0,1,a,0,0,0\n0,0,1,b,0,0,0\n0,0,1,c,0,0,0\n0,0,1,d,0,0,0\n0,0,1,e,0,0,0\n0,0,1,f,0,0,0\n" +
			"0,0,1,g,0,0,0\n0,0,1,h,0,0,0\n0,0,1,i,0,0,0\n0,0,1,j,0,0,0\n0,0,1,a,0,0,0\n0,0,1,j,0,0,0\n0,0,1,,0,0,0\n",
		hdr + "0,1\"2,1,x,0,0,0\n", hdr + "0,0,1.\"5,x,0,0,0\n", hdr + "0,0,1,x,0,0,\"0\"\n", hdr + "0,0,1,x\r,0,0,0\n",
		hdr + "0,0,1,x,0,0\n0,0,1,x,0,0,0\n", hdr + "0,0,1,x,0,0,0,0\n0,0,1,x,0,0,0\n", hdr + "0,0,1,x,0,0,0\n0,1,2,y,3,4,5",
		hdr + "0,0,1,x,0,0,0\r\n0,1,2,y,3,4,5\r", hdr + "0,0,1,x,0,0,0\n\n0,1,2,y,3,4,5\n", hdr + "0,0,1\n,x,0,0,0\n",
		// A first record's timestamp may be as low as int64 allows.
		hdr + "0,-7000000000000000000,0,,0,0,0\n0,-9223372036854775808,0,,0,0,0\n",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want, errLine, oerr := oracleReadCSV(bytes.NewReader(data))
		got, err := ReadCSV(bytes.NewReader(data))
		// A source that cannot seek and returns one byte per call must give
		// the same outcome.
		got2, err2 := ReadCSV(&oneByteReader{s: string(data)})
		if (err == nil) != (err2 == nil) || err != nil && err.Error() != err2.Error() || diffRecords(got2, got) != "" {
			t.Fatalf("%q: bytewise %v %v, whole %v %v", data, got2, err2, got, err)
		}
		if oerr == nil {
			if err != nil {
				t.Fatalf("rejected %q: %v", data, err)
			}
			if msg := diffRecords(got, want); msg != "" {
				t.Fatalf("%s on %q", msg, data)
			}
			return
		}
		if err == nil {
			t.Fatalf("accepted %q, the encoding/csv reader says %v", data, oerr)
		}
		// encoding/csv words its own findings its own way; everything else
		// keeps its text, and every error keeps its record number.
		if isCSVError(oerr) {
			prefix := "trace: read header: "
			if errLine > 0 {
				prefix = fmt.Sprintf("trace: line %d: ", errLine)
			}
			if !strings.HasPrefix(err.Error(), prefix) {
				t.Fatalf("%q: got %q, want it to start with %q", data, err, prefix)
			}
		} else if err.Error() != oerr.Error() {
			t.Fatalf("%q: got %q, want %q", data, err, oerr)
		}
	})
}

func FuzzParseFloatFast(f *testing.F) {
	for _, s := range []string{"0", "-0", "+3", "1e-05", "12.34", ".5", "5.", ".", "1e", "e5", "1e+22", "1e23", "1e-22",
		"123456789012345", "1234567890123456", "0.000000000000000000001", "9007199254740993", "1.5e23", "NaN", "Inf",
		"0x1p-2", "1_0", "1..2", "--1", "1e1000000000000000000000", "00000000000000000000001", "4.9e-324"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, ok := parseFloat([]byte(s))
		// Reader.fast reads a field by floatPrefix and then wants a comma: it
		// must stop at the comma with parseFloat's verdict on the field.
		pf, n, pok := floatPrefix([]byte(s + ",9"))
		if ok != (pok && n == len(s)) || ok && math.Float64bits(pf) != math.Float64bits(got) {
			t.Fatalf("floatPrefix(%q) = %v, %d, %v; parseFloat(%q) = %v, %v", s+",9", pf, n, pok, s, got, ok)
		}
		if !ok {
			return
		}
		want, err := strconv.ParseFloat(s, 64)
		if err != nil || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("parseFloat(%q) = %v, strconv.ParseFloat = %v, %v", s, got, want, err)
		}
	})
}

func FuzzParseIntFast(f *testing.F) {
	for _, s := range []string{"0", "-0", "+3", "007", "", "-", "+", "123456789012345678", "1234567890123456789",
		"000000000000000000", "0000000000000000001", "0,", "12,3", "9223372036854775807", "9223372036854775808",
		"-9223372036854775808", "-9223372036854775809", "99999999999999999999", "1_0", "0x10", "1e3", " 1"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, ok := parseInt([]byte(s))
		want, err := strconv.ParseInt(s, 10, 64)
		if ok != (err == nil) || ok && got != want {
			t.Fatalf("parseInt(%q) = %v, %v; strconv.ParseInt = %v, %v", s, got, ok, want, err)
		}
		// Reader.fast's digitField takes exactly the unsigned 1–18-digit
		// fields, ended by the separator it is given.
		in := "x" + s + ",9"
		end := len(in) - len(strings.TrimLeft(in[1:], "0123456789")) // the first non-digit
		field := in[1:end]
		plain := len(field) >= 1 && len(field) <= 18 && in[end] == ','
		v, next := digitField([]byte(in), 1, ',')
		if fv, _ := strconv.ParseInt(field, 10, 64); (next != 0) != plain || plain && (v != fv || next != end+1) {
			t.Fatalf("digitField(%q, 1) = %v, %d; the field is %q", in, v, next, field)
		}
	})
}
