// Package trace generates and loads the experimental workload of
// Section 6.1: wide-area TCP connection records in the style of the
// Lawrence Berkeley Laboratory trace from the Internet Traffic Archive
// (LBL-TCP-3).
//
// Each record carries: a system-assigned timestamp, session duration,
// protocol type, payload size, and source/destination IP addresses. The
// trace is split into logical streams ("outgoing links") by destination, one
// tuple arriving per link per time unit, exactly as the paper fixes.
//
// The generator is a documented substitution for the archived trace (see
// DESIGN.md): it reproduces the properties the experiments depend on —
// the protocol mix (telnet roughly ten times as frequent as ftp, making
// σ(protocol=ftp) selective and σ(protocol=telnet) unselective), Zipf-skewed
// source addresses so joins, distinct and negation see realistic value
// overlap, and deterministic seeding. A CSV reader/writer is provided so a
// real trace can be substituted back in: Reader streams a file record by
// record from the bytes, with no per-record allocation; ReadCSV is a loop
// over it that returns the whole file; WriteCSV writes the same layout.
package trace

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/tuple"
)

var schema = tuple.MustSchema(
	tuple.Column{Name: "ts", Kind: tuple.KindInt},
	tuple.Column{Name: "duration", Kind: tuple.KindFloat},
	tuple.Column{Name: "protocol", Kind: tuple.KindString},
	tuple.Column{Name: "payload", Kind: tuple.KindInt},
	tuple.Column{Name: "src", Kind: tuple.KindInt},
	tuple.Column{Name: "dst", Kind: tuple.KindInt},
)

// Schema is the connection-record schema shared by all links. Every call
// returns the same value; that is safe because a tuple.Schema has no mutating
// method.
func Schema() *tuple.Schema { return schema }

// Column positions in Schema, for plan construction.
const (
	ColTS = iota
	ColDuration
	ColProtocol
	ColPayload
	ColSrc
	ColDst
	numCols
)

// Protocols and their relative frequencies. telnet dominates ftp roughly
// 10:1 (Section 6.1: the telnet predicate "produces ten times as many
// results").
var protocolMix = []struct {
	name   string
	weight int
}{
	{"telnet", 40},
	{"smtp", 20},
	{"http", 16},
	{"nntp", 10},
	{"ftp", 4},
	{"finger", 6},
	{"other", 4},
}

// Record is one parsed connection record routed to a logical stream.
type Record struct {
	// Link is the logical stream (outgoing link) index in [0, Links).
	Link int
	// TS is the arrival timestamp in time units.
	TS int64
	// Vals are the record's attribute values per Schema.
	Vals []tuple.Value
}

// Config parameterizes the generator.
type Config struct {
	// Links is the number of logical streams the trace is split into
	// (destination-based, Section 6.1). Default 2.
	Links int
	// Tuples is the total number of records to generate.
	Tuples int
	// SrcHosts is the source-address domain size. Default 1000.
	SrcHosts int
	// SrcSkew is the Zipf skew of source addresses (s parameter); values
	// around 1.1 give the heavy-tailed reuse real traces show. Default 1.1.
	// Values <= 1 but > 0 select a uniform source distribution instead —
	// useful for join workloads whose result sizes would otherwise grow
	// with the square of the hot values' frequency.
	SrcSkew float64
	// Seed makes the trace reproducible.
	Seed int64
	// DisjointSources, when true, offsets each link's source-address
	// domain so links share no addresses — the "different sets of values of
	// the negation attribute" regime of Section 5.3.2 where premature
	// expirations never happen.
	DisjointSources bool
}

func (c Config) withDefaults() Config {
	if c.Links <= 0 {
		c.Links = 2
	}
	if c.SrcHosts <= 0 {
		c.SrcHosts = 1000
	}
	if c.SrcSkew == 0 {
		c.SrcSkew = 1.1
	}
	return c
}

// Generator produces a deterministic synthetic trace, one record per time
// unit round-robin across links (one tuple per link per Links time units,
// i.e. an average of one arrival per link per link-period — matching the
// paper's "average of one tuple arriving on each link during one time
// unit" when consumers treat each link's clock independently; see Stream).
type Generator struct {
	cfg  Config
	rng  *rand.Rand
	zipf *rand.Zipf
	next int
	ts   int64
}

// NewGenerator builds a generator.
func NewGenerator(cfg Config) *Generator {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := &Generator{cfg: cfg, rng: rng}
	if cfg.SrcSkew > 1 {
		g.zipf = rand.NewZipf(rng, cfg.SrcSkew, 1, uint64(cfg.SrcHosts-1))
	}
	return g
}

// Next returns the next record, or false when the configured tuple count is
// exhausted. Arrivals are interleaved so that during each time unit, one
// tuple arrives on each link (Section 6.1).
func (g *Generator) Next() (Record, bool) {
	if g.cfg.Tuples > 0 && g.next >= g.cfg.Tuples {
		return Record{}, false
	}
	link := g.next % g.cfg.Links
	if link == 0 && g.next > 0 {
		g.ts++
	}
	g.next++

	var src int64
	if g.zipf != nil {
		src = int64(g.zipf.Uint64())
	} else {
		src = int64(g.rng.Intn(g.cfg.SrcHosts))
	}
	if g.cfg.DisjointSources {
		src += int64(link) * int64(g.cfg.SrcHosts)
	}
	dst := int64(g.cfg.SrcHosts) + int64(link) // destination identifies the link
	vals := []tuple.Value{
		tuple.Int(g.ts),
		tuple.Float(math.Round(g.rng.ExpFloat64()*1000) / 100), // session duration, heavy-tailed
		tuple.String_(g.protocol()),
		tuple.Int(int64(g.rng.Intn(1 << 14))), // payload bytes
		tuple.Int(src),
		tuple.Int(dst),
	}
	return Record{Link: link, TS: g.ts, Vals: vals}, true
}

func (g *Generator) protocol() string {
	total := 0
	for _, p := range protocolMix {
		total += p.weight
	}
	n := g.rng.Intn(total)
	for _, p := range protocolMix {
		if n < p.weight {
			return p.name
		}
		n -= p.weight
	}
	return "other"
}

// Generate materializes a whole trace.
func Generate(cfg Config) []Record {
	if cfg.Tuples <= 0 {
		cfg.Tuples = 1000
	}
	g := NewGenerator(cfg)
	out := make([]Record, 0, cfg.Tuples)
	for {
		r, ok := g.Next()
		if !ok {
			return out
		}
		out = append(out, r)
	}
}

// ProtocolShare returns the expected fraction of records with the protocol,
// for selectivity estimates in plan statistics.
func ProtocolShare(name string) float64 {
	total, hit := 0, 0
	for _, p := range protocolMix {
		total += p.weight
		if p.name == name {
			hit = p.weight
		}
	}
	if total == 0 {
		return 0
	}
	return float64(hit) / float64(total)
}

// Validate sanity-checks a record against the schema. Records from a Reader
// conform by construction; this is for records built any other way.
func (r Record) Validate() error {
	if len(r.Vals) != numCols {
		return fmt.Errorf("trace: record arity %d != schema %d", len(r.Vals), numCols)
	}
	for i, v := range r.Vals {
		if c := schema.Col(i); v.Kind != c.Kind {
			return fmt.Errorf("trace: column %s has kind %v, want %v", c.Name, v.Kind, c.Kind)
		}
	}
	if r.Link < 0 {
		return fmt.Errorf("trace: negative link %d", r.Link)
	}
	return nil
}
