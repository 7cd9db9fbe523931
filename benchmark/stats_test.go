package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ q, want float64 }{{0, 10}, {0.5, 30}, {0.25, 20}, {0.99, 49.6}, {1, 50}} {
		if got := percentile(xs, c.q); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("percentile of one value = %v, want 7", got)
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4)
// returns, since that is the estimator the acceptance rule is written in.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{10, 20}, 7.5, 22.5},
		{[]float64{3, 1, 2}, 1, 3},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestSpread(t *testing.T) {
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 5.5/5.5) {
		t.Errorf("spread = %v, want 1", got)
	}
	if got := spread([]float64{4}); got != 0 {
		t.Errorf("spread of one value = %v, want 0", got)
	}
}

func TestWindowMedians(t *testing.T) {
	const sec = int64(1e9)
	var samples []sample
	// Window 0: 100 samples of 1 ms. Window 1: 200 samples, four of them 1 s
	// outliers. Window 2: 300 samples of 3 ms. A trailing half window that
	// must be dropped.
	for i := 0; i < 100; i++ {
		samples = append(samples, sample{atNs: int64(i) * sec / 100, latNs: 1e6})
	}
	for i := 0; i < 200; i++ {
		lat := int64(2e6)
		if i < 4 {
			lat = 1e9
		}
		samples = append(samples, sample{atNs: sec + int64(i)*sec/200, latNs: lat})
	}
	for i := 0; i < 300; i++ {
		samples = append(samples, sample{atNs: 2*sec + int64(i)*sec/300, latNs: 3e6})
	}
	samples = append(samples, sample{atNs: 3*sec + 1, latNs: 9e9})

	ws := windows(samples, sec, 3*sec+sec/2)
	if len(ws) != 3 {
		t.Fatalf("got %d windows, want 3 (the partial one dropped)", len(ws))
	}
	if rates := windowRates(ws, sec); median(rates) != 200 {
		t.Errorf("median rate = %v, want 200 (rates %v)", median(rates), rates)
	}
	p99s := windowP99s(ws)
	// The outliers own window 1's p99 but not the median of the three.
	if p99s[1] < 1e8 {
		t.Errorf("window 1 p99 = %v, want the outlier to show", p99s[1])
	}
	if got := median(p99s); got != 3e6 {
		t.Errorf("median of per-window p99s = %v, want 3e6", got)
	}
	if p50s := windowP50s(ws); len(p50s) != 3 || p50s[1] != 2e6 {
		t.Errorf("per-window medians = %v, want the middle one 2e6", p50s)
	}
}
