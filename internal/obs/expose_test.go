package obs

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
)

func TestServerCloseIdempotentAndReleasesPort(t *testing.T) {
	reg := NewRegistry()
	srv, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	if err := srv.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	// The port must be free for a new listener once Close returns.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("port %s not released after Close: %v", addr, err)
	}
	ln.Close()
}

func TestServeExposition(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("upa_arrivals_total", "arrivals", nil).Add(9)
	srv, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	if out := get("/metrics"); !strings.Contains(out, "upa_arrivals_total 9") {
		t.Fatalf("/metrics = %q", out)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(get("/metrics.json")), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["upa_arrivals_total"] != 9 {
		t.Fatalf("/metrics.json = %+v", snap)
	}
	if out := get("/debug/pprof/"); !strings.Contains(out, "profile") {
		t.Fatalf("/debug/pprof/ = %q", out)
	}
}
