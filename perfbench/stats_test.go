package main

import (
	"math"
	"testing"
	"time"
)

func TestTailSupportedNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want bool
	}{
		{999, 0.99, false},
		{1000, 0.99, true},
		{99, 0.9, false},
		{100, 0.9, true},
		{19, 0.5, false},
		{20, 0.5, true},
	}
	for _, c := range cases {
		if got := tailSupported(c.n, c.q); got != c.want {
			t.Errorf("tailSupported(%d, %g) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
	if got := minSamplesForTail(0.99); got != 1000 {
		t.Errorf("minSamplesForTail(0.99) = %d, want 1000", got)
	}
	if got := minSamplesForTail(0.9); got != 100 {
		t.Errorf("minSamplesForTail(0.9) = %d, want 100", got)
	}
}

func TestRequireTailFlagsShortWindows(t *testing.T) {
	out := &outcome{}
	requireTail(out, 1000)
	if len(out.problems) != 0 {
		t.Fatalf("1000 samples flagged: %v", out.problems)
	}
	requireTail(out, 999)
	if len(out.problems) != 1 {
		t.Fatalf("999 samples not flagged")
	}
}

func TestQuantileMatchesInclusiveInterpolation(t *testing.T) {
	data := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	// Python: statistics.quantiles(range(1, 11), n=4, method="inclusive")
	// == [3.25, 5.5, 7.75].
	for q, want := range map[float64]float64{0.25: 3.25, 0.5: 5.5, 0.75: 7.75, 0: 1, 1: 10} {
		if got := quantile(data, q); math.Abs(got-want) > 1e-12 {
			t.Errorf("quantile(%g) = %g, want %g", q, got, want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no data = %g, want 0", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %g, want 5", got)
	}
}

func TestSlicedRateIgnoresAStalledSlice(t *testing.T) {
	var at []time.Duration
	// 100 completions per second for 5 s, except second 2, which stalls.
	for sec := 0; sec < 5; sec++ {
		if sec == 2 {
			continue
		}
		for k := 0; k < 100; k++ {
			at = append(at, time.Duration(sec)*time.Second+time.Duration(k)*10*time.Millisecond)
		}
	}
	if got := slicedRate(at, nil, 5*time.Second, time.Second); got != 100 {
		t.Errorf("sliced rate = %g, want 100", got)
	}
	// Weights count units per completion; too short a span for three
	// slices falls back to the plain rate.
	if got := slicedRate(at[:2], []float64{3, 5}, 2*time.Second, time.Second); got != 4 {
		t.Errorf("plain rate = %g, want 4", got)
	}
}
