package main

import (
	"math"
	"sort"
)

// Estimators. Every number the benchmark reports goes through one of
// these, so their behaviour on small and lopsided samples is pinned by
// stats_test.go.

// percentile returns the q-quantile (0..1) of an ascending slice by
// linear interpolation between closest ranks. An empty slice gives 0.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return sorted[0]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return percentile(sortedCopy(xs), 0.5) }

// quartiles returns Q1 and Q3 the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), because
// that is the estimator the acceptance rule for this benchmark is
// written in. Fewer than two values give the value itself twice.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile range as a share of the median: the
// run-to-run noise figure printed beside every metric.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// sample is one completed request: when its reply arrived, measured from
// the start of its phase, and how long it took.
type sample struct {
	atNs  int64
	latNs int64
}

// windowStat summarises one whole window of a phase.
type windowStat struct {
	count    int
	p50, p99 float64 // of latNs
}

// windows cuts samples into consecutive windows of windowNs starting at 0
// and ending at endNs; a trailing partial window is dropped, so every
// reported window saw the same span of load. Samples need not be ordered.
func windows(samples []sample, windowNs, endNs int64) []windowStat {
	n := int(endNs / windowNs)
	if n <= 0 {
		return nil
	}
	buckets := make([][]float64, n)
	for _, s := range samples {
		w := int(s.atNs / windowNs)
		if s.atNs < 0 || w >= n {
			continue
		}
		buckets[w] = append(buckets[w], float64(s.latNs))
	}
	out := make([]windowStat, n)
	for i, b := range buckets {
		sort.Float64s(b)
		out[i] = windowStat{count: len(b), p50: percentile(b, 0.5), p99: percentile(b, 0.99)}
	}
	return out
}

// windowRates, windowP50s and windowP99s project a window series onto the
// per-window quantities the benchmark takes medians of. Empty windows
// have no percentiles and are left out of those.
func windowRates(ws []windowStat, windowNs int64) []float64 {
	out := make([]float64, len(ws))
	for i, w := range ws {
		out[i] = float64(w.count) * 1e9 / float64(windowNs)
	}
	return out
}

func windowP50s(ws []windowStat) []float64 {
	return windowQuantile(ws, func(w windowStat) float64 { return w.p50 })
}
func windowP99s(ws []windowStat) []float64 {
	return windowQuantile(ws, func(w windowStat) float64 { return w.p99 })
}

func windowQuantile(ws []windowStat, pick func(windowStat) float64) []float64 {
	out := make([]float64, 0, len(ws))
	for _, w := range ws {
		if w.count > 0 {
			out = append(out, pick(w))
		}
	}
	return out
}

// latencies returns the sorted latNs of samples as float64.
func latencies(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = float64(s.latNs)
	}
	sort.Float64s(out)
	return out
}
