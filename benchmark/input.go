package main

import (
	"bytes"

	"repro"
	"repro/internal/trace"
	"repro/internal/tuple"
)

// input is a workload's materialised trace. Pass p replays the same records
// with every timestamp shifted by p × span, so each pass after the warm-up
// starts from the same steady state with full windows.
type input struct {
	recs []trace.Record
	span int64 // time units one pass covers
}

// generate materialises the workload's trace from the seed, one record per
// link per time unit (Section 6.1).
func generate(w workload, seed int64) *input {
	gen := trace.NewGenerator(trace.Config{
		Links: w.links, Tuples: w.records, Seed: seed,
		SrcHosts: srcHosts, SrcSkew: w.srcSkew,
	})
	recs := make([]trace.Record, 0, w.records)
	for {
		r, ok := gen.Next()
		if !ok {
			break
		}
		recs = append(recs, r)
	}
	return &input{recs: recs, span: recs[len(recs)-1].TS + 1}
}

// arrivals returns records [lo, hi) of pass p as engine arrivals, the TS
// field and the ts column shifted by p × span. Each record gets its own value
// slice, as a CSV reader would allocate it: the engine retains the slices it
// stores, so they can be neither shared between passes nor carved from one
// slab without inflating the live heap.
func (in *input) arrivals(pass, lo, hi int) []repro.Arrival {
	shift := int64(pass) * in.span
	out := make([]repro.Arrival, hi-lo)
	for i, r := range in.recs[lo:hi] {
		ts := r.TS + shift
		vals := make([]tuple.Value, len(r.Vals))
		copy(vals, r.Vals)
		vals[trace.ColTS] = tuple.Int(ts)
		out[i] = repro.Arrival{Stream: r.Link, TS: ts, Vals: vals}
	}
	return out
}

// csvChunks re-encodes pass p as CSV, csvChunk records per chunk, each chunk
// a complete file with its header so trace.ReadCSV can parse it alone.
func (in *input) csvChunks(pass int) ([][]byte, error) {
	var chunks [][]byte
	for lo := 0; lo < len(in.recs); lo += csvChunk {
		arr := in.arrivals(pass, lo, min(lo+csvChunk, len(in.recs)))
		recs := make([]trace.Record, len(arr))
		for i, a := range arr {
			recs[i] = trace.Record{Link: a.Stream, TS: a.TS, Vals: a.Vals}
		}
		var buf bytes.Buffer
		if err := trace.WriteCSV(&buf, recs); err != nil {
			return nil, err
		}
		chunks = append(chunks, buf.Bytes())
	}
	return chunks, nil
}

// passInput is one pass's input in the form the workload's grain ingests.
type passInput struct {
	arrivals []repro.Arrival // grainTuple, grainBatch
	chunks   [][]byte        // grainCSV
}

// prepare builds pass p's input. It runs between passes and is never timed.
func (in *input) prepare(g grain, pass int) (passInput, error) {
	if g == grainCSV {
		chunks, err := in.csvChunks(pass)
		return passInput{chunks: chunks}, err
	}
	return passInput{arrivals: in.arrivals(pass, 0, len(in.recs))}, nil
}
