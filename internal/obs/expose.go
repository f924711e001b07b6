package obs

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"
)

// Page is one extra endpoint mounted on the exposition handler — e.g. the
// engine's /debug/plan introspection page. Handler is invoked per request;
// it must only read atomically-updated state when an engine is mid-run.
type Page struct {
	// Path is the mount path (e.g. "/debug/plan").
	Path string
	// Title is a short description shown on the index page.
	Title string
	// Handler serves the page.
	Handler http.HandlerFunc
}

// Handler serves the registry over HTTP:
//
//	/metrics        Prometheus text exposition format
//	/metrics.json   JSON snapshot of every metric
//	/debug/pprof/*  runtime profiling
//
// Extra pages (e.g. /debug/plan) may be mounted alongside. The handler reads
// the registry with atomic loads only, so it is safe to scrape while an
// engine is mid-run.
func Handler(reg *Registry, pages ...Page) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Header().Set("Cache-Control", "no-cache")
		_ = reg.WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.Header().Set("Cache-Control", "no-cache")
		_ = reg.WriteJSON(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	for _, p := range pages {
		mux.HandleFunc(p.Path, p.Handler)
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "upa observability endpoint\n\n/metrics\n/metrics.json\n/debug/pprof/\n")
		for _, p := range pages {
			if p.Title != "" {
				fmt.Fprintf(w, "%s  (%s)\n", p.Path, p.Title)
			} else {
				fmt.Fprintln(w, p.Path)
			}
		}
	})
	return mux
}

// Server is a running exposition endpoint.
type Server struct {
	ln   net.Listener
	srv  *http.Server
	once sync.Once
	err  error
}

// Addr returns the bound address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener and releases the port. Idempotent: repeated
// calls return the first Close's error without touching the (already
// closed) server again.
func (s *Server) Close() error {
	s.once.Do(func() {
		s.err = s.srv.Close()
		// srv.Close only closes listeners Serve has already registered; if
		// Close races ahead of the background Serve goroutine the listener
		// would leak (and hold the port), so close it directly too.
		if err := s.ln.Close(); s.err == nil && err != nil && !errors.Is(err, net.ErrClosed) {
			s.err = err
		}
	})
	return s.err
}

// Serve binds addr (e.g. ":9090") and serves Handler(reg, pages...) in a
// background goroutine until Close.
func Serve(addr string, reg *Registry, pages ...Page) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: Handler(reg, pages...), ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	return &Server{ln: ln, srv: srv}, nil
}
