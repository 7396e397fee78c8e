package main

import (
	"math"
	"sort"
	"time"
)

// minTail is the number of samples that must lie beyond the highest
// percentile the benchmark reports: a p90 read from fewer than ten slower
// samples is one outlier away from a different number.
const minTail = 10

// quantile returns the nearest-rank q-quantile of xs (0 < q <= 1): the
// smallest sample such that at least a fraction q of all samples are at
// or below it. xs need not be sorted; it is not modified. An empty input
// gives NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rankIndex(len(s), q)]
}

// rankIndex is the 0-based nearest-rank position of the q-quantile among
// n sorted samples.
func rankIndex(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// tailCount is the number of samples that lie strictly beyond the
// nearest-rank q-quantile of n samples.
func tailCount(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rankIndex(n, q)
}

// minSamplesFor is the smallest sample count whose q-quantile has at least
// tail samples beyond it.
func minSamplesFor(q float64, tail int) int {
	n := 1
	for tailCount(n, q) < tail {
		n++
	}
	return n
}

// median is the 0.5 nearest-rank quantile.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0 (a layer the workload never exercised).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// sample is one op's outcome as the harness saw it.
type sample struct {
	wall    time.Duration // wall time of the op
	virtual time.Duration // modelled (virtual) time of the op
	failed  bool          // the op returned an error
	// key and digest let a workload check the op's output afterwards
	// (the sweep's member index and end-state digest).
	key    int
	digest uint64
}

// tally is the failure accounting: every attempted op counts once, and
// an op that failed or produced a wrong output counts as failed once.
type tally struct {
	attempted int
	failed    int // ops that returned an error
	wrong     int // ops that completed with a wrong output
}

// add folds a phase's samples into the tally.
func (t *tally) add(ss []sample) {
	for _, s := range ss {
		t.attempted++
		if s.failed {
			t.failed++
		}
	}
}

// addWrong counts completed ops whose outputs the check rejected. A
// wrong op cannot also be a failed one, so the total never exceeds the
// attempted count.
func (t *tally) addWrong(n int) {
	if room := t.attempted - t.failed - t.wrong; n > room {
		n = room
	}
	t.wrong += n
}

// bad is the number of ops that failed or were wrong.
func (t *tally) bad() int { return t.failed + t.wrong }

// failedFrac is bad ops over attempted ops.
func (t *tally) failedFrac() float64 { return ratio(float64(t.bad()), float64(t.attempted)) }
