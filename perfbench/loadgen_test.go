package main

import (
	"testing"
	"time"
)

// fakeClock advances only when slept on or when a test moves it.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

func TestPaceChargesAStallToEveryLaterRequest(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := &fakeClock{now: start}
	const rate = 10 // one request due every 100ms
	var sent, dues []time.Time
	lags := pace(clk, start, rate, 6, func(i int, due time.Time) {
		sent = append(sent, clk.Now())
		dues = append(dues, due)
		if i == 1 {
			clk.now = clk.now.Add(350 * time.Millisecond) // request 1 stalls the generator
		}
	})
	ms := time.Millisecond
	wantLag := []time.Duration{0, 0, 250 * ms, 150 * ms, 50 * ms, 0}
	for i, want := range wantLag {
		if lags[i] != want {
			t.Errorf("lag[%d] = %v, want %v", i, lags[i], want)
		}
		if want := start.Add(time.Duration(i) * 100 * ms); !dues[i].Equal(want) {
			t.Errorf("due[%d] = %v, want %v", i, dues[i], want)
		}
		if sent[i].Before(dues[i]) {
			t.Errorf("request %d sent before it was due", i)
		}
	}
	// Request 3 is answered 10ms after it went out: from its due time it
	// waited 160ms, all but 10ms of it behind request 1's stall.
	done := sent[3].Add(10 * ms)
	if got := latencyFromDue(dues[3], done); got != 160*ms {
		t.Errorf("latency from due = %v, want 160ms", got)
	}
}

func TestDueTimeIsFixedRate(t *testing.T) {
	start := time.Unix(0, 0)
	if got := dueTime(start, 250, 500); !got.Equal(start.Add(2 * time.Second)) {
		t.Errorf("dueTime(250/s, 500) = %v, want +2s", got.Sub(start))
	}
}
