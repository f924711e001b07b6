package trace

import (
	"bytes"
	"testing"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Config{Tuples: 500, Seed: 7})
	b := Generate(Config{Tuples: 500, Seed: 7})
	if len(a) != 500 || len(b) != 500 {
		t.Fatalf("lengths %d %d", len(a), len(b))
	}
	for i := range a {
		if a[i].TS != b[i].TS || a[i].Link != b[i].Link || !sameVals(a[i], b[i]) {
			t.Fatalf("records diverge at %d", i)
		}
	}
	c := Generate(Config{Tuples: 500, Seed: 8})
	same := 0
	for i := range a {
		if sameVals(a[i], c[i]) {
			same++
		}
	}
	if same == 500 {
		t.Error("different seeds should differ")
	}
}

func sameVals(a, b Record) bool {
	for i := range a.Vals {
		if !a.Vals[i].Equal(b.Vals[i]) {
			return false
		}
	}
	return true
}

func TestRoundRobinLinksAndTimestamps(t *testing.T) {
	recs := Generate(Config{Tuples: 100, Links: 2, Seed: 1})
	last := int64(-1)
	for i, r := range recs {
		if r.Link != i%2 {
			t.Fatalf("record %d on link %d", i, r.Link)
		}
		if r.TS < last {
			t.Fatalf("timestamp regression at %d", i)
		}
		last = r.TS
		if err := r.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	// One tuple per link per time unit.
	if recs[0].TS != 0 || recs[1].TS != 0 || recs[2].TS != 1 {
		t.Errorf("timestamps: %d %d %d", recs[0].TS, recs[1].TS, recs[2].TS)
	}
}

func TestProtocolMixTelnetDominatesFTP(t *testing.T) {
	recs := Generate(Config{Tuples: 20000, Seed: 3})
	counts := map[string]int{}
	for _, r := range recs {
		counts[r.Vals[ColProtocol].S]++
	}
	ftp, telnet := counts["ftp"], counts["telnet"]
	if ftp == 0 || telnet == 0 {
		t.Fatalf("missing protocols: %v", counts)
	}
	ratio := float64(telnet) / float64(ftp)
	if ratio < 7 || ratio > 13 {
		t.Errorf("telnet/ftp ratio = %v, want ≈10 (Section 6.1)", ratio)
	}
	if got := ProtocolShare("telnet") / ProtocolShare("ftp"); got != 10 {
		t.Errorf("expected share ratio = %v", got)
	}
	if ProtocolShare("nosuch") != 0 {
		t.Error("unknown protocol share should be 0")
	}
}

func TestSourceSkew(t *testing.T) {
	recs := Generate(Config{Tuples: 10000, Seed: 4, SrcHosts: 500})
	counts := map[int64]int{}
	for _, r := range recs {
		counts[r.Vals[ColSrc].I]++
	}
	// Zipf: the most common address should dwarf the median.
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < 10000/20 {
		t.Errorf("top source only %d/10000 — not skewed enough", max)
	}
	if len(counts) < 20 {
		t.Errorf("too few distinct sources: %d", len(counts))
	}
}

func TestDisjointSources(t *testing.T) {
	recs := Generate(Config{Tuples: 2000, Links: 2, Seed: 5, DisjointSources: true, SrcHosts: 100})
	seen := [2]map[int64]bool{{}, {}}
	for _, r := range recs {
		seen[r.Link][r.Vals[ColSrc].I] = true
	}
	for s := range seen[0] {
		if seen[1][s] {
			t.Fatalf("source %d appears on both links", s)
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	recs := Generate(Config{Tuples: 200, Seed: 6})
	var buf bytes.Buffer
	if err := WriteCSV(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("round trip lost records: %d vs %d", len(got), len(recs))
	}
	for i := range got {
		if got[i].Link != recs[i].Link || got[i].TS != recs[i].TS || !sameVals(got[i], recs[i]) {
			t.Fatalf("record %d mismatch: %v vs %v", i, got[i], recs[i])
		}
	}
}

func TestSchemaColumns(t *testing.T) {
	s := Schema()
	if s.Len() != 6 || s.Col(ColSrc).Name != "src" || s.Col(ColProtocol).Name != "protocol" {
		t.Errorf("schema: %v", s)
	}
}

func TestRecordValidate(t *testing.T) {
	recs := Generate(Config{Tuples: 1, Seed: 1})
	bad := recs[0]
	bad.Vals = bad.Vals[:3]
	if err := bad.Validate(); err == nil {
		t.Error("short record accepted")
	}
	bad2 := recs[0]
	bad2.Link = -1
	if err := bad2.Validate(); err == nil {
		t.Error("negative link accepted")
	}
}
