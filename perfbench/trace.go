package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Span is one timed call made by the benchmark into a layer of the
// program: the span's name is the layer call, Parent links it to the span
// that made the call (-1 for an op's root span), and every span of one op
// carries the op's shared identifier.
type Span struct {
	Caller int    `json:"caller"`
	Op     int64  `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

// recorder keeps the spans of one goroutine in memory. A disabled recorder
// records nothing, so the untraced run pays two branches per span.
type recorder struct {
	on     bool
	caller int
	origin time.Time
	spans  []Span
	stack  []int
	op     int64
}

func newRecorder(on bool, caller int, origin time.Time) *recorder {
	return &recorder{on: on, caller: caller, origin: origin}
}

// beginOp opens the root span of op.
func (r *recorder) beginOp(name string, op int64) int {
	r.op = op
	return r.start(name)
}

// start opens a span as a child of the innermost open span.
func (r *recorder) start(name string) int {
	if !r.on {
		return -1
	}
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, Span{
		Caller: r.caller, Op: r.op, ID: id, Parent: parent, Name: name,
		Start: int64(time.Since(r.origin)),
	})
	r.stack = append(r.stack, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (r *recorder) end(id int) {
	if !r.on || id < 0 {
		return
	}
	r.spans[id].End = int64(time.Since(r.origin))
	r.stack = r.stack[:len(r.stack)-1]
}

// layerTimes is the outcome of self-time accounting over a span set.
type layerTimes struct {
	// Self maps a span name to the summed time its spans did not spend in
	// child spans.
	Self map[string]time.Duration
	// Calls counts spans per name.
	Calls map[string]int
	// Roots is the summed duration of the op root spans.
	Roots time.Duration
	// Ops counts root spans.
	Ops int
}

// selfTimes computes each span's self time: its duration minus the part of
// its interval covered by its direct children (overlapping children are
// merged, so concurrent children are not double counted).
func selfTimes(spans []Span) layerTimes {
	lt := layerTimes{Self: map[string]time.Duration{}, Calls: map[string]int{}}
	type key struct{ caller, id int }
	children := map[key][]Span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			k := key{s.Caller, s.Parent}
			children[k] = append(children[k], s)
		}
	}
	for _, s := range spans {
		kids := children[key{s.Caller, s.ID}]
		covered := coveredWithin(kids, s.Start, s.End)
		lt.Self[s.Name] += time.Duration(s.End - s.Start - covered)
		lt.Calls[s.Name]++
		if s.Parent < 0 {
			lt.Roots += time.Duration(s.End - s.Start)
			lt.Ops++
		}
	}
	return lt
}

// coveredWithin returns how much of [lo, hi] the union of the spans'
// intervals covers.
func coveredWithin(spans []Span, lo, hi int64) int64 {
	if len(spans) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	started := false
	for _, v := range iv {
		switch {
		case !started:
			curA, curB, started = v[0], v[1], true
		case v[0] <= curB:
			curB = max(curB, v[1])
		default:
			total += curB - curA
			curA, curB = v[0], v[1]
		}
	}
	if started {
		total += curB - curA
	}
	return total
}

// writeSpans writes spans as JSON lines to path.
func writeSpans(path string, spans []Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
