package main

import (
	"bytes"
	"strings"
	"testing"
)

// A layer's self time is its span minus the part its direct children cover;
// grandchildren are subtracted from the child, not from the grandparent.
func TestPassTimesSelfSubtraction(t *testing.T) {
	spans := []span{
		{Kind: spanPass, Start: 0, End: 1000, Parent: -1, Pass: 1, Calls: 1},
		{Kind: spanReadCSV, Start: 10, End: 310, Parent: 0, Pass: 1, Calls: 1},
		{Kind: spanIngest, Start: 320, End: 620, Parent: 0, Pass: 1, Calls: 1},
		{Kind: spanOnEmit, Start: 500, End: 600, Parent: 2, Pass: 1, Calls: 7},
		{Kind: spanIngest, Start: 630, End: 730, Parent: 0, Pass: 1, Calls: 1},
		{Kind: spanSync, Start: 900, End: 950, Parent: 0, Pass: 1, Calls: 1},
		// Another pass: must not leak into pass 1.
		{Kind: spanPass, Start: 2000, End: 2500, Parent: -1, Pass: 2, Calls: 1},
		{Kind: spanIngest, Start: 2000, End: 2400, Parent: 6, Pass: 2, Calls: 1},
	}
	lt := passTimes(spans, 1)
	want := map[spanKind][2]int64{ // total, self
		spanPass:    {1000, 1000 - 300 - 300 - 100 - 50},
		spanReadCSV: {300, 300},
		spanIngest:  {400, 300},
		spanOnEmit:  {100, 100},
		spanSync:    {50, 50},
	}
	for k, w := range want {
		if lt.total[k] != w[0] || lt.self[k] != w[1] {
			t.Errorf("%v: total %d self %d, want %d %d", k, lt.total[k], lt.self[k], w[0], w[1])
		}
	}
	var sum int64
	for k := spanKind(0); k < numSpanKinds; k++ {
		sum += lt.self[k]
	}
	if sum != lt.total[spanPass] {
		t.Errorf("self times sum to %d, the pass is %d", sum, lt.total[spanPass])
	}
	if p2 := passTimes(spans, 2); p2.self[spanPass] != 100 || p2.total[spanIngest] != 400 {
		t.Errorf("pass 2: %+v", p2)
	}
}

func TestRecorderNestsAndNilIsInert(t *testing.T) {
	var off *recorder
	off.begin(spanPass)
	off.child(spanOnEmit, 5, 1)
	off.end()

	r := newRecorder(8)
	r.pass = 3
	r.begin(spanPass)
	r.begin(spanIngest)
	r.child(spanOnEmit, 0, 0) // no callbacks: no span
	r.child(spanOnEmit, 1, 4)
	r.end()
	r.end()
	if len(r.spans) != 3 || len(r.stack) != 0 {
		t.Fatalf("spans %d stack %d", len(r.spans), len(r.stack))
	}
	if r.spans[1].Parent != 0 || r.spans[2].Parent != 1 || r.spans[2].Calls != 4 || r.spans[2].Pass != 3 {
		t.Errorf("nesting: %+v", r.spans)
	}
	if r.spans[0].End < r.spans[1].End || r.spans[1].End < r.spans[2].End {
		t.Errorf("a parent must end after its children: %+v", r.spans)
	}
	var buf bytes.Buffer
	if err := writeSpans(&buf, "w", r.spans); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 || !strings.Contains(lines[2], `"name":"subscriber.OnEmit"`) || !strings.Contains(lines[2], `"parent":1`) {
		t.Errorf("span file:\n%s", buf.String())
	}
}
