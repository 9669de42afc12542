package main

import (
	"math"
	"sort"
	"time"
)

// tailMinBeyond is how many samples must lie beyond a reported tail
// percentile: a p99 read from fewer than 1000 samples rests on fewer than
// ten observations and moves with every outlier.
const tailMinBeyond = 10

// tailSupported reports whether n samples leave at least tailMinBeyond
// samples beyond the q-quantile (q in (0,1)).
func tailSupported(n int, q float64) bool {
	// The small epsilon keeps n=1000, q=0.99 on the right side of the
	// float rounding in 1000*(1-0.99).
	return float64(n)*(1-q)+1e-9 >= tailMinBeyond
}

// minSamplesForTail is the smallest sample count tailSupported accepts.
func minSamplesForTail(q float64) int {
	return int(math.Ceil(tailMinBeyond/(1-q) - 1e-9))
}

// quantile returns the q-quantile of sorted data by linear interpolation
// between order statistics (the rule of Python's statistics.quantiles with
// method="inclusive"). It returns 0 for no data.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if lo+1 >= n {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median of xs (0 for no data).
func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// durs converts durations to float64 values in the given unit.
func durs(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// slicedRate cuts [0, span) into consecutive slices of the given width and
// returns the median over the full slices of the weight completed per
// second in each (a nil weights counts 1 per completion). A burst of stalls
// on a shared machine slows one slice, not the figure. With fewer than
// three full slices it returns the plain rate over the span.
func slicedRate(at []time.Duration, weights []float64, span, width time.Duration) float64 {
	w := func(i int) float64 {
		if weights == nil {
			return 1
		}
		return weights[i]
	}
	n := int(span / width)
	if n < 3 {
		var total float64
		for i := range at {
			total += w(i)
		}
		return ratio(total, span.Seconds())
	}
	sums := make([]float64, n)
	for i, t := range at {
		if k := int(t / width); k >= 0 && k < n {
			sums[k] += w(i)
		}
	}
	for k := range sums {
		sums[k] /= width.Seconds()
	}
	return median(sums)
}
