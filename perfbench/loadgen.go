package main

import "time"

// clock is the time source of the open-loop generator; tests substitute a
// fake one.
type clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// dueTime is when request i of a fixed-rate stream starting at start is
// due.
func dueTime(start time.Time, rate float64, i int) time.Time {
	return start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
}

// pace issues n requests at a fixed rate: request i is sent at its due time
// or, when an earlier send ran late, as soon as the generator gets to it.
// send runs on the generator's goroutine, so a slow send delays every later
// one. pace returns each request's generator lag (send time − due time);
// callers time each request from its due time, so a stall is charged to
// every request it delayed.
func pace(clk clock, start time.Time, rate float64, n int, send func(i int, due time.Time)) []time.Duration {
	lags := make([]time.Duration, n)
	for i := 0; i < n; i++ {
		due := dueTime(start, rate, i)
		if wait := due.Sub(clk.Now()); wait > 0 {
			clk.Sleep(wait)
		}
		lags[i] = clk.Now().Sub(due)
		send(i, due)
	}
	return lags
}

// latencyFromDue is a request's latency as its user sees it: from when it
// was due to be sent until its result arrived.
func latencyFromDue(due, done time.Time) time.Duration { return done.Sub(due) }
