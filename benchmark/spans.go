package main

import (
	"bufio"
	"fmt"
	"io"
	"time"
)

// spanKind names the call a span wraps. The name's prefix is the layer
// (module) the call enters.
type spanKind uint8

const (
	spanPass spanKind = iota
	spanReadCSV
	spanConvert
	spanIngest
	spanOnEmit
	spanCheckpoint
	spanSync
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	spanPass:       "pass",
	spanReadCSV:    "trace.ReadCSV",
	spanConvert:    "tuple.convert",
	spanIngest:     "exec.ingest",
	spanOnEmit:     "subscriber.OnEmit",
	spanCheckpoint: "checkpoint.write",
	spanSync:       "exec.Sync",
}

func (k spanKind) String() string { return spanNames[k] }

// span is one timed call into a layer, recorded from the benchmark's side
// of the boundary. Times are nanoseconds since the recorder was created.
type span struct {
	Start, End int64
	Parent     int32 // index of the enclosing span, -1 for a pass
	Pass       int32
	// Calls is how many calls the span stands for: the OnEmit callbacks of
	// one ingest call are folded into one child span (Calls callbacks,
	// End-Start their summed time) so that a pass with millions of
	// emissions does not hold millions of spans.
	Calls int32
	Kind  spanKind
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, so untraced passes pay one nil check per call site. It is used
// from the feeder goroutine only.
type recorder struct {
	t0    time.Time
	spans []span
	stack []int32
	pass  int32
}

func newRecorder(capacity int) *recorder {
	return &recorder{t0: time.Now(), spans: make([]span, 0, capacity)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// begin opens a span as a child of the innermost open span.
func (r *recorder) begin(k spanKind) {
	if r == nil {
		return
	}
	parent := int32(-1)
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	r.stack = append(r.stack, int32(len(r.spans)))
	r.spans = append(r.spans, span{Kind: k, Start: r.now(), Parent: parent, Pass: r.pass, Calls: 1})
}

// end closes the innermost open span.
func (r *recorder) end() {
	if r == nil {
		return
	}
	n := len(r.stack)
	r.spans[r.stack[n-1]].End = r.now()
	r.stack = r.stack[:n-1]
}

// child records an already-measured child of the innermost open span: calls
// calls that together took dur and ended now.
func (r *recorder) child(k spanKind, dur int64, calls int) {
	if r == nil || calls == 0 {
		return
	}
	end := r.now()
	r.spans = append(r.spans, span{Kind: k, Start: end - dur, End: end,
		Parent: r.stack[len(r.stack)-1], Pass: r.pass, Calls: int32(calls)})
}

// layerTimes is the time of one pass by span kind.
type layerTimes struct {
	// self is each kind's summed duration minus its direct children's: the
	// time spent in that layer itself. total includes the children.
	self, total [numSpanKinds]int64
}

// passTimes folds the spans of one pass into per-kind self and total times.
func passTimes(spans []span, pass int32) layerTimes {
	var lt layerTimes
	childSum := make([]int64, len(spans))
	for _, s := range spans {
		if s.Pass == pass && s.Parent >= 0 {
			childSum[s.Parent] += s.dur()
		}
	}
	for i, s := range spans {
		if s.Pass != pass {
			continue
		}
		lt.total[s.Kind] += s.dur()
		lt.self[s.Kind] += s.dur() - childSum[i]
	}
	return lt
}

// writeSpans writes one JSON object per span of one workload's traced run;
// id and parent index that workload's spans.
func writeSpans(w io.Writer, workload string, spans []span) error {
	bw := bufio.NewWriter(w)
	for i, s := range spans {
		fmt.Fprintf(bw, `{"workload":%q,"id":%d,"name":%q,"start_ns":%d,"end_ns":%d,"parent":%d,"pass":%d,"calls":%d}`+"\n",
			workload, i, s.Kind.String(), s.Start, s.End, s.Parent, s.Pass, s.Calls)
	}
	return bw.Flush()
}
