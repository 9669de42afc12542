package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsNestedChildren(t *testing.T) {
	// op [0,100] → a [10,40] → a1 [20,30]; op → b [50,90].
	spans := []Span{
		{ID: 0, Parent: -1, Name: "op", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 1, Name: "a1", Start: 20, End: 30},
		{ID: 3, Parent: 0, Name: "b", Start: 50, End: 90},
	}
	lt := selfTimes(spans)
	want := map[string]time.Duration{"op": 30, "a": 20, "a1": 10, "b": 40}
	for name, d := range want {
		if lt.Self[name] != d {
			t.Errorf("self(%s) = %v, want %v", name, lt.Self[name], d)
		}
	}
	if lt.Roots != 100 || lt.Ops != 1 {
		t.Errorf("roots = %v over %d ops, want 100 over 1", lt.Roots, lt.Ops)
	}
	var total time.Duration
	for _, d := range lt.Self {
		total += d
	}
	if total != lt.Roots {
		t.Errorf("self times sum to %v, want the op time %v", total, lt.Roots)
	}
}

func TestSelfTimeMergesOverlappingChildrenAndSeparatesCallers(t *testing.T) {
	spans := []Span{
		{Caller: 0, ID: 0, Parent: -1, Name: "op", Start: 0, End: 100},
		{Caller: 0, ID: 1, Parent: 0, Name: "x", Start: 0, End: 60},
		{Caller: 0, ID: 2, Parent: 0, Name: "y", Start: 40, End: 80},
		// Caller 1's span 0 shares an ID with caller 0's root but is not
		// its child.
		{Caller: 1, ID: 0, Parent: -1, Name: "op", Start: 0, End: 50},
		// A child running past its parent's end counts only inside it.
		{Caller: 1, ID: 1, Parent: 0, Name: "z", Start: 30, End: 70},
	}
	lt := selfTimes(spans)
	if got := lt.Self["op"]; got != 20+30 {
		t.Errorf("self(op) = %v, want 50", got)
	}
	if lt.Ops != 2 || lt.Roots != 150 {
		t.Errorf("roots = %v over %d ops, want 150 over 2", lt.Roots, lt.Ops)
	}
}

func TestRecorderNestsSpansAndDisabledRecordsNothing(t *testing.T) {
	rec := newRecorder(true, 3, time.Now())
	root := rec.beginOp("op", 7)
	a := rec.start("a")
	b := rec.start("b")
	rec.end(b)
	rec.end(a)
	c := rec.start("c")
	rec.end(c)
	rec.end(root)
	if len(rec.spans) != 4 {
		t.Fatalf("recorded %d spans, want 4", len(rec.spans))
	}
	parents := []int{-1, 0, 1, 0}
	for i, s := range rec.spans {
		if s.Parent != parents[i] || s.Op != 7 || s.Caller != 3 {
			t.Errorf("span %d = %+v, want parent %d op 7 caller 3", i, s, parents[i])
		}
		if s.End < s.Start {
			t.Errorf("span %d ends before it starts", i)
		}
	}
	off := newRecorder(false, 0, time.Now())
	off.end(off.beginOp("op", 1))
	if len(off.spans) != 0 {
		t.Errorf("disabled recorder kept %d spans", len(off.spans))
	}
}
