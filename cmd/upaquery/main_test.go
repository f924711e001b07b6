package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/trace"
)

// collect runs feedTrace keeping every arrival it was handed, the way an
// engine on the row path retains them, plus the fed count of each push.
func collect(t *testing.T, file string, gen trace.Config, skip, max int, keep func(*trace.Record) bool) ([]exec.Arrival, []int, error) {
	t.Helper()
	if keep == nil {
		keep = func(*trace.Record) bool { return true }
	}
	var got []exec.Arrival
	var fed []int
	err := feedTrace(file, gen, skip, max, keep, func(batch []exec.Arrival, n int) error {
		if len(batch) > ingestBatch {
			t.Fatalf("batch of %d", len(batch))
		}
		got = append(got, batch...)
		fed = append(fed, n)
		return nil
	})
	return got, fed, err
}

func sameArrivals(t *testing.T, got []exec.Arrival, want []trace.Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d arrivals, want %d", len(got), len(want))
	}
	for i, a := range got {
		w := want[i]
		if a.Stream != w.Link || a.TS != w.TS || len(a.Vals) != len(w.Vals) {
			t.Fatalf("arrival %d: %v, want %v", i, a, w)
		}
		for j := range a.Vals {
			if !a.Vals[j].Equal(w.Vals[j]) {
				t.Fatalf("arrival %d: %v, want %v", i, a, w)
			}
		}
	}
}

func TestFeedTrace(t *testing.T) {
	gen := trace.Config{Links: 2, Tuples: 1000, Seed: 42}
	recs := trace.Generate(gen)
	file := filepath.Join(t.TempDir(), "trace.csv")
	f, err := os.Create(file)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteCSV(f, recs); err != nil {
		t.Fatal(err)
	}
	// A malformed record after the 1000 good ones.
	if _, err := f.WriteString("0,x,1,ftp,1,1,1\n"); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	for _, src := range []string{"", file} {
		name := "generated"
		max := 0
		if src != "" {
			name, max = "file", 1000 // the whole file would reach the bad line
		}
		// Arrivals handed over in earlier batches must survive later reads.
		got, reads, err := collect(t, src, gen, 0, max, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sameArrivals(t, got, recs)
		if want := []int{256, 512, 768, 1000}; fmt.Sprint(reads) != fmt.Sprint(want) {
			t.Errorf("%s: pushes at %v, want %v", name, reads, want)
		}

		// A resumed, bounded run sees records [skip, max), in batches that
		// end where the straight run's do.
		got, reads, err = collect(t, src, gen, 300, 700, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sameArrivals(t, got, recs[300:700])
		if want := []int{512, 700}; fmt.Sprint(reads) != fmt.Sprint(want) {
			t.Errorf("%s: pushes at %v, want %v", name, reads, want)
		}

		// Nothing is left when the checkpoint is at or past the bound.
		if got, _, err = collect(t, src, gen, 800, 700, nil); err != nil || len(got) != 0 {
			t.Errorf("%s: skip past max: %d arrivals, %v", name, len(got), err)
		}

		// Records keep rejects are read but not fed.
		link1 := func(r *trace.Record) bool { return r.Link == 1 }
		var fed []trace.Record
		for _, r := range recs {
			if link1(&r) {
				fed = append(fed, r)
			}
		}
		got, _, err = collect(t, src, gen, 0, max, link1)
		if err != nil || len(got) != 500 {
			t.Fatalf("%s: filtered: %d arrivals, %v", name, len(got), err)
		}
		sameArrivals(t, got, fed)

		// A resumed run skips as many records as keep accepted before the
		// cut, whatever it rejected among them.
		got, pushes, err := collect(t, src, gen, 100, max, link1)
		if err != nil {
			t.Fatalf("%s: filtered resume: %v", name, err)
		}
		sameArrivals(t, got, fed[100:])
		if want := []int{256, 500}; fmt.Sprint(pushes) != fmt.Sprint(want) {
			t.Errorf("%s: filtered resume pushes at %v, want %v", name, pushes, want)
		}
	}

	// Unbounded, the file run feeds everything before the bad line and then
	// reports it with its line number.
	got, _, err := collect(t, file, gen, 0, 0, nil)
	if err == nil || !strings.HasPrefix(err.Error(), "trace: line 1002: ts:") {
		t.Errorf("bad line: %v", err)
	}
	sameArrivals(t, got, recs[:768])

	if _, _, err := collect(t, filepath.Join(t.TempDir(), "missing.csv"), gen, 0, 0, nil); !os.IsNotExist(err) {
		t.Errorf("missing file: %v", err)
	}
}
