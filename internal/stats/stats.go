// Package stats provides the metric primitives the evaluation harness
// needs: streaming mean/variance, small-sample confidence intervals,
// duration histograms, and the root-side latency recorder.
package stats

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// Welford accumulates a streaming mean and variance.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add incorporates x.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of samples.
func (w *Welford) N() int { return w.n }

// Mean returns the sample mean (0 with no samples).
func (w *Welford) Mean() float64 { return w.mean }

// Var returns the unbiased sample variance (0 with fewer than 2 samples).
func (w *Welford) Var() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Std returns the sample standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Var()) }

// t90 holds two-sided 90% Student-t critical values by degrees of freedom
// (1-based index); beyond the table the normal value 1.645 applies.
var t90 = []float64{0, 6.314, 2.920, 2.353, 2.132, 2.015, 1.943, 1.895, 1.860, 1.833, 1.812,
	1.796, 1.782, 1.771, 1.761, 1.753, 1.746, 1.740, 1.734, 1.729, 1.725}

// CI90 returns the half-width of the two-sided 90% confidence interval of
// the mean, using Student's t for small samples. Zero with fewer than two
// samples.
func (w *Welford) CI90() float64 {
	if w.n < 2 {
		return 0
	}
	df := w.n - 1
	t := 1.645
	if df < len(t90) {
		t = t90[df]
	}
	return t * w.Std() / math.Sqrt(float64(w.n))
}

// Histogram counts durations in fixed-width bins [0,w), [w,2w), ...
type Histogram struct {
	binWidth time.Duration
	counts   []uint64
	total    uint64
	overflow uint64
}

// NewHistogram creates a histogram with the given bin width and bin
// count; values beyond the last bin are counted as overflow. Invalid
// shapes are errors, not panics, so histogram parameters wired from
// configuration surface as build failures instead of crashes.
func NewHistogram(binWidth time.Duration, bins int) (*Histogram, error) {
	if binWidth <= 0 || bins <= 0 {
		return nil, fmt.Errorf("stats: histogram needs positive bin width and count, got %v and %d", binWidth, bins)
	}
	return &Histogram{binWidth: binWidth, counts: make([]uint64, bins)}, nil
}

// Add records d. Negative durations count into the first bin.
func (h *Histogram) Add(d time.Duration) {
	h.total++
	if d < 0 {
		h.counts[0]++
		return
	}
	i := int(d / h.binWidth)
	if i >= len(h.counts) {
		h.overflow++
		return
	}
	h.counts[i]++
}

// Counts returns a copy of the per-bin counts.
func (h *Histogram) Counts() []uint64 { return append([]uint64(nil), h.counts...) }

// BinWidth returns the bin width.
func (h *Histogram) BinWidth() time.Duration { return h.binWidth }

// Total returns the number of recorded values, including overflow.
func (h *Histogram) Total() uint64 { return h.total }

// Overflow returns the count of values beyond the last bin.
func (h *Histogram) Overflow() uint64 { return h.overflow }

// FractionBelow returns the fraction of recorded values strictly below d,
// approximated at bin granularity (partial bins prorated linearly). The
// overflow bucket is an unbounded bin starting at the histogram range
// end: its values count in full once d clears the range (they cannot be
// prorated — only their lower bound is known), so the fraction is
// monotone in d and reaches 1.0 for thresholds beyond the range.
func (h *Histogram) FractionBelow(d time.Duration) float64 {
	if h.total == 0 {
		return 0
	}
	var below float64
	for i, c := range h.counts {
		lo := time.Duration(i) * h.binWidth
		hi := lo + h.binWidth
		switch {
		case hi <= d:
			below += float64(c)
		case lo < d:
			below += float64(c) * float64(d-lo) / float64(h.binWidth)
		}
	}
	if d > time.Duration(len(h.counts))*h.binWidth {
		below += float64(h.overflow)
	}
	return below / float64(h.total)
}

// DurationStats summarizes a set of durations.
type DurationStats struct {
	N    int
	Mean time.Duration
	P50  time.Duration
	P95  time.Duration
	Max  time.Duration
}

// SummarizeDurations computes summary statistics of ds (ds is not
// modified).
func SummarizeDurations(ds []time.Duration) DurationStats {
	sorted := slices.Clone(ds)
	slices.Sort(sorted)
	return summarizeSorted(sorted)
}

// summarizeSorted computes summary statistics of ascending durations.
func summarizeSorted(sorted []time.Duration) DurationStats {
	if len(sorted) == 0 {
		return DurationStats{}
	}
	var sum time.Duration
	for _, d := range sorted {
		sum += d
	}
	return DurationStats{
		N:    len(sorted),
		Mean: sum / time.Duration(len(sorted)),
		P50:  Percentile(sorted, 0.50),
		P95:  Percentile(sorted, 0.95),
		Max:  sorted[len(sorted)-1],
	}
}

// Percentile returns the nearest-rank p-th percentile of sorted
// (ascending) durations: the smallest element with at least ceil(p·n)
// values at or below it. Unlike a floor-index pick, nearest-rank never
// collapses the tail — P95 of two samples is the max, not the min. p is
// clamped to [0, 1]; an empty slice yields 0.
func Percentile(sorted []time.Duration, p float64) time.Duration {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[n-1]
	}
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i]
}
