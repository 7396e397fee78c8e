package main

import (
	"math"
	"testing"
	"time"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	cases := []struct {
		q    float64
		want float64
	}{
		{0.5, 5}, {0.9, 9}, {0.1, 1}, {1, 10}, {0.01, 1}, {0.91, 10},
	}
	for _, c := range cases {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("quantile sorted its input in place")
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples is not NaN")
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}

func TestTailCount(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want int
	}{
		{0, 0.9, 0}, {1, 0.9, 0}, {10, 0.9, 1}, {99, 0.9, 9}, {100, 0.9, 10}, {256, 0.9, 25}, {100, 0.5, 50},
	}
	for _, c := range cases {
		if got := tailCount(c.n, c.q); got != c.want {
			t.Errorf("tailCount(%d, %v) = %d, want %d", c.n, c.q, got, c.want)
		}
	}
}

// The p90 the benchmark reports needs ten slower samples behind it: 100
// samples give exactly ten, 99 give nine.
func TestMinSamplesForP90(t *testing.T) {
	n := minSamplesFor(0.9, minTail)
	if n != 100 {
		t.Fatalf("minSamplesFor(0.9, %d) = %d, want 100", minTail, n)
	}
	if tailCount(n, 0.9) < minTail || tailCount(n-1, 0.9) >= minTail {
		t.Errorf("%d is not the smallest sample count with %d samples beyond p90", n, minTail)
	}
}

func TestTallyFailedFrac(t *testing.T) {
	var tl tally
	tl.add([]sample{{}, {failed: true}, {}, {}})
	tl.add([]sample{{}, {}, {failed: true}, {}})
	if tl.attempted != 8 || tl.failed != 2 {
		t.Fatalf("tally = %+v, want 8 attempted, 2 failed", tl)
	}
	tl.addWrong(1)
	if got := tl.failedFrac(); got != 3.0/8 {
		t.Errorf("failedFrac = %v, want 3/8", got)
	}
	// A check that rejects the whole run cannot count more ops than
	// completed: failed ops are already counted once.
	tl.addWrong(100)
	if tl.bad() != 8 || tl.failedFrac() != 1 {
		t.Errorf("after rejecting everything: bad %d, frac %v; want 8, 1", tl.bad(), tl.failedFrac())
	}
	var empty tally
	if empty.failedFrac() != 0 {
		t.Error("failedFrac of nothing attempted is not 0")
	}
}

func TestPhaseVirtualsSkipFailedOps(t *testing.T) {
	ph := &phase{samples: []sample{
		{wall: time.Millisecond, virtual: 2 * time.Millisecond},
		{wall: 3 * time.Millisecond, failed: true},
		{wall: 2 * time.Millisecond, virtual: 4 * time.Millisecond},
	}}
	if w := ph.walls(); len(w) != 3 || w[1] != 3 {
		t.Errorf("walls = %v, want every op's wall time", w)
	}
	if v := ph.virtuals(); len(v) != 2 || v[0] != 2 || v[1] != 4 {
		t.Errorf("virtuals = %v, want only completed ops", v)
	}
}

func TestVirtualTotalFixedWork(t *testing.T) {
	ph := &phase{}
	for i := 0; i < virtualOps+50; i++ {
		ph.samples = append(ph.samples, sample{virtual: 10 * time.Millisecond})
	}
	if got, want := virtualTotal(ph), float64(virtualOps)*0.010; math.Abs(got-want) > 1e-9 {
		t.Errorf("virtualTotal = %v, want %v (only the first %d ops)", got, want, virtualOps)
	}
	ph.campaignMakespans = []float64{0.3, 0.1, 0.2}
	if got := virtualTotal(ph); got != 0.2 {
		t.Errorf("virtualTotal over campaigns = %v, want the median makespan 0.2", got)
	}
}
