package main

import (
	"bytes"
	"testing"

	"repro/internal/trace"
)

func smallSuite() []workload { return suite(1000, 16) }

func smallWorkload(t *testing.T, name string) workload {
	t.Helper()
	for _, w := range smallSuite() {
		if w.name == name {
			return w
		}
	}
	t.Fatalf("no workload %s", name)
	return workload{}
}

// Shifting a pass keeps the records' order, their count per link and their
// values; only the timestamps — the TS field and the ts column — move, by
// pass × span, so consecutive passes never overlap or leave a gap.
func TestShiftKeepsOrderAndCounts(t *testing.T) {
	w := smallWorkload(t, "q5-tuple-upa")
	in := generate(w, 7)
	if len(in.recs) != w.records {
		t.Fatalf("generated %d records, want %d", len(in.recs), w.records)
	}
	perLink := func(pass int) map[int]int {
		m := map[int]int{}
		for _, a := range in.arrivals(pass, 0, len(in.recs)) {
			m[a.Stream]++
		}
		return m
	}
	base := perLink(0)
	var prevLast int64 = -1
	for pass := 0; pass < 3; pass++ {
		arr := in.arrivals(pass, 0, len(in.recs))
		if arr[0].TS != prevLast+1 {
			t.Errorf("pass %d starts at %d, previous pass ended at %d", pass, arr[0].TS, prevLast)
		}
		for i, a := range arr {
			r := in.recs[i]
			if a.TS != r.TS+int64(pass)*in.span || a.Vals[trace.ColTS].I != a.TS {
				t.Fatalf("pass %d record %d: ts %d col %d, base %d", pass, i, a.TS, a.Vals[trace.ColTS].I, r.TS)
			}
			if i > 0 && a.TS < arr[i-1].TS {
				t.Fatalf("pass %d: timestamp regresses at %d", pass, i)
			}
			if a.Stream != r.Link || !a.Vals[trace.ColSrc].Equal(r.Vals[trace.ColSrc]) || a.Vals[trace.ColProtocol].S != r.Vals[trace.ColProtocol].S {
				t.Fatalf("pass %d record %d changed beyond its timestamp", pass, i)
			}
		}
		prevLast = arr[len(arr)-1].TS
		got := perLink(pass)
		for l, n := range base {
			if got[l] != n {
				t.Errorf("pass %d link %d: %d records, pass 0 had %d", pass, l, got[l], n)
			}
		}
	}
	// The engine retains value slices: passes must not share them, and the
	// generator's records must stay untouched.
	a1, a2 := in.arrivals(1, 0, 1), in.arrivals(2, 0, 1)
	a1[0].Vals[trace.ColSrc].I = -1
	if a2[0].Vals[trace.ColSrc].I == -1 || in.recs[0].Vals[trace.ColSrc].I == -1 {
		t.Error("passes share value slices")
	}
	if in.recs[0].Vals[trace.ColTS].I != in.recs[0].TS {
		t.Error("shifting wrote into the base records")
	}
}

func TestSameSeedSameInput(t *testing.T) {
	w := smallWorkload(t, "q1-csv-col")
	a, b, c := generate(w, 3), generate(w, 3), generate(w, 4)
	same := func(x, y *input) bool {
		for i := range x.recs {
			for j := range x.recs[i].Vals {
				if !x.recs[i].Vals[j].Equal(y.recs[i].Vals[j]) {
					return false
				}
			}
		}
		return true
	}
	if !same(a, b) {
		t.Error("the same seed gave different traces")
	}
	if same(a, c) {
		t.Error("different seeds gave the same trace")
	}
}

// Every CSV chunk is a complete file trace.ReadCSV parses on its own, the
// chunks together hold the pass's records in order, and the encoding is done
// by prepare: a pass is handed bytes and has no way to reach the records, so
// re-encoding between passes cannot fall inside a timed region.
func TestCSVChunksRoundTripAndAreBuiltOutsideThePass(t *testing.T) {
	w := smallWorkload(t, "q1-csv-col")
	in := generate(w, 1)
	pi, err := in.prepare(w.grain, 2)
	if err != nil {
		t.Fatal(err)
	}
	if pi.arrivals != nil || len(pi.chunks) != (w.records+csvChunk-1)/csvChunk {
		t.Fatalf("%d chunks, arrivals %v", len(pi.chunks), pi.arrivals != nil)
	}
	want := in.arrivals(2, 0, len(in.recs))
	i := 0
	for _, chunk := range pi.chunks {
		recs, err := trace.ReadCSV(bytes.NewReader(chunk))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if r.Link != want[i].Stream || r.TS != want[i].TS {
				t.Fatalf("record %d: link %d ts %d, want %d %d", i, r.Link, r.TS, want[i].Stream, want[i].TS)
			}
			for j, v := range r.Vals {
				if !v.Equal(want[i].Vals[j]) {
					t.Fatalf("record %d column %d: %v, want %v", i, j, v, want[i].Vals[j])
				}
			}
			i++
		}
	}
	if i != len(want) {
		t.Fatalf("chunks hold %d records, pass has %d", i, len(want))
	}

	// Run the pass with the input gone.
	sys, err := build(w, legCfg{}, false)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.ing.Close()
	in = nil
	l := &leg{name: "t", sys: sys}
	res := l.runPass(2, pi)
	if res.err != nil || res.records != w.records {
		t.Fatalf("pass: err %v, %d records", res.err, res.records)
	}
	if want := w.records/w.batch + 1; res.ops != want {
		t.Errorf("ops = %d, want %d PushBatch calls + 1 Sync", res.ops, want)
	}
}
