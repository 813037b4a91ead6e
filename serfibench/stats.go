package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quartiles returns the first quartile, median and third quartile of xs by
// the method of Python's statistics.quantiles(xs, n=4) (exclusive), which is
// the rule the benchmark's spread gate is stated in. One value is its own
// quartiles.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(p float64) float64 {
		// Exclusive method: position p*(n+1), 1-based, clamped to the data.
		pos := p * float64(n+1)
		j := int(math.Floor(pos))
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(0.25), median(s), at(0.75)
}

// median of xs (NaN when empty).
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile of xs that still has at least ten
// samples beyond it, that percentile, and the sample count. With ten or
// fewer samples no percentile qualifies; the maximum is returned as p100.
func tail(xs []float64) (v, pct float64, n int) {
	s := sorted(xs)
	n = len(s)
	if n == 0 {
		return math.NaN(), 0, 0
	}
	if n <= 10 {
		return s[n-1], 100, n
	}
	i := n - 11 // exactly ten samples sort above index i
	return s[i], 100 * float64(i+1) / float64(n), n
}

// secs converts durations to seconds.
func secs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// scaled multiplies every value by k.
func scaled(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// timeMedian calls f at least n times and until budget has passed, and
// returns the median duration of a call in seconds.
func timeMedian(n int, budget time.Duration, f func() error) (float64, error) {
	ds, err := timeCalls(n, budget, true, f)
	if err != nil {
		return 0, err
	}
	return median(ds), nil
}

// timeCalls calls f at least n times and until budget has passed, and
// returns the duration of every call in seconds. With collect, each call
// starts from a collected heap; without, the calls run back to back and
// each pays its share of the collector as it runs.
func timeCalls(n int, budget time.Duration, collect bool, f func() error) ([]float64, error) {
	var ds []float64
	start := time.Now()
	for len(ds) < n || time.Since(start) < budget {
		if collect {
			runtime.GC()
		}
		t0 := time.Now()
		if err := f(); err != nil {
			return nil, err
		}
		ds = append(ds, time.Since(t0).Seconds())
	}
	return ds, nil
}
