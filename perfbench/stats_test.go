package main

import "testing"

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 48) // fig10: 48 cells
	for i := range xs {
		xs[i] = float64(48 - i) // unsorted on purpose
	}
	for _, c := range []struct {
		p      float64
		value  float64
		beyond int
	}{
		{50, 24, 24},
		{75, 36, 12},
		{90, 44, 4},
		{100, 48, 0},
	} {
		v, b := percentile(xs, c.p)
		if v != c.value || b != c.beyond {
			t.Errorf("p%g of 1..48 = %g with %d beyond, want %g with %d", c.p, v, b, c.value, c.beyond)
		}
	}
	if v, b := percentile(nil, 50); v != 0 || b != 0 {
		t.Errorf("percentile of no samples = %g, %d", v, b)
	}
}

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	cands := []float64{50, 75, 90, 95, 99}
	for _, c := range []struct {
		n    int
		want float64
	}{
		{48, 75},  // fig10: p75 leaves 12 beyond, p90 only 4
		{200, 95}, // service-cells: p95 leaves 10
		{414, 95}, // all-short: p99 would leave 4
		{20, 50},  // exactly ten beyond the median
		{19, 0},   // not even the median has ten beyond it
		{2000, 99},
	} {
		if got := tailPercentile(c.n, cands...); got != c.want {
			t.Errorf("tailPercentile(%d) = p%g, want p%g", c.n, got, c.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}); m != 5.5 {
		t.Errorf("even median = %g, want 5.5", m)
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %g, want 2", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("median of no samples = %g", m)
	}
}
