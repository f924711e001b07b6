package tuple

import "testing"

func TestInternerDenseIDs(t *testing.T) {
	in := NewInterner()
	a := in.Intern("ftp")
	b := in.Intern("http")
	c := in.Intern("ftp")
	if a != 0 || b != 1 {
		t.Fatalf("ids not dense: got %d, %d", a, b)
	}
	if c != a {
		t.Fatalf("re-interning returned %d, want %d", c, a)
	}
	if in.Len() != 2 {
		t.Fatalf("Len = %d, want 2", in.Len())
	}
	if in.Str(a) != "ftp" || in.Str(b) != "http" {
		t.Fatalf("Str round-trip broken: %q, %q", in.Str(a), in.Str(b))
	}
	if v := in.Value(b); v.Kind() != KindString || v.S != "http" {
		t.Fatalf("Value(%d) = %v", b, v)
	}
}

func TestInternerLookup(t *testing.T) {
	in := NewInterner()
	if _, ok := in.Lookup("ftp"); ok {
		t.Fatal("Lookup on empty interner reported ok")
	}
	id := in.Intern("ftp")
	got, ok := in.Lookup("ftp")
	if !ok || got != id {
		t.Fatalf("Lookup = (%d, %v), want (%d, true)", got, ok, id)
	}
	if in.Len() != 1 {
		t.Fatal("Lookup must not intern")
	}
}

func TestInternerReset(t *testing.T) {
	in := NewInterner()
	in.Intern("old")
	if err := in.Reset([]string{"ftp", "http", "smtp"}); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	if in.Len() != 3 {
		t.Fatalf("Len after Reset = %d, want 3", in.Len())
	}
	for i, s := range []string{"ftp", "http", "smtp"} {
		id, ok := in.Lookup(s)
		if !ok || id != uint32(i) {
			t.Fatalf("Lookup(%q) = (%d, %v), want (%d, true)", s, id, ok, i)
		}
	}
	// Post-reset interning continues from the restored table.
	if id := in.Intern("ftp"); id != 0 {
		t.Fatalf("Intern after Reset assigned %d, want 0", id)
	}
	if id := in.Intern("dns"); id != 3 {
		t.Fatalf("new string after Reset got id %d, want 3", id)
	}
}

func TestInternerResetRejectsDuplicates(t *testing.T) {
	in := NewInterner()
	if err := in.Reset([]string{"ftp", "http", "ftp"}); err == nil {
		t.Fatal("Reset accepted a duplicate snapshot entry")
	}
}

func TestInternerSteadyStateZeroAllocs(t *testing.T) {
	in := NewInterner()
	in.Intern("ftp")
	in.Intern("http")
	allocs := testing.AllocsPerRun(1000, func() {
		if in.Intern("ftp") != 0 {
			t.Fatal("bad id")
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state Intern: %v allocs/op, want 0", allocs)
	}
}

// TestInternerCacheFlushOnReset pins the cache hazard: an id cached before
// Reset must not leak through after the table changes id assignments.
func TestInternerCacheFlushOnReset(t *testing.T) {
	in := NewInterner()
	in.Intern("ftp")  // id 0
	in.Intern("http") // id 1
	in.Intern("http") // warm the cache slot
	if err := in.Reset([]string{"dns", "http"}); err != nil {
		t.Fatal(err)
	}
	if id := in.Intern("http"); id != 1 {
		t.Fatalf("Intern(http) after Reset = %d, want 1", id)
	}
	if id := in.Intern("ftp"); id != 2 {
		t.Fatalf("Intern(ftp) after Reset = %d, want 2 (fresh id)", id)
	}
	// Repeated interns keep resolving through the refilled cache.
	for i := 0; i < 3; i++ {
		if id := in.Intern("dns"); id != 0 {
			t.Fatalf("Intern(dns) = %d, want 0", id)
		}
	}
}
