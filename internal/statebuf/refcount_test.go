package statebuf

import "testing"

func TestRefCountLifecycle(t *testing.T) {
	r := NewRefCount()
	if r.Count() != 1 {
		t.Fatalf("new refcount = %d, want 1", r.Count())
	}
	if n := r.Acquire(); n != 2 {
		t.Fatalf("acquire = %d, want 2", n)
	}
	if n := r.Release(); n != 1 {
		t.Fatalf("release = %d, want 1", n)
	}
	if n := r.Release(); n != 0 {
		t.Fatalf("release = %d, want 0", n)
	}
	if n := r.Release(); n != 0 {
		t.Fatalf("release past zero = %d, want 0 (must not go negative)", n)
	}
}
