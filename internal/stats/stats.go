// Package stats provides the summary statistics used throughout the
// experimental section (§5.1): sample means with 95% confidence intervals
// via Student's t distribution (the paper reports "average statistics …
// along with their 95% confidence intervals").
package stats

import "math"

// t95 holds two-sided 97.5% Student-t critical values for 1..30 degrees of
// freedom; beyond 30 the normal approximation 1.96 is used.
var t95 = [...]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// TCrit95 returns the two-sided 95% critical value for df degrees of
// freedom (1.96 for df > 30; +Inf for df < 1, signalling "no interval").
func TCrit95(df int) float64 {
	switch {
	case df < 1:
		return math.Inf(1)
	case df <= len(t95):
		return t95[df-1]
	default:
		return 1.96
	}
}

// Mean returns the sample mean (0 for an empty sample).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance (0 for n < 2).
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(n-1)
}

// StdDev returns the sample standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Summary is a mean with its 95% confidence half-width, rendered as
// "mean ± hw" in the paper's tables (and served as JSON by the sweepd
// summary endpoint).
type Summary struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	// HalfWidth is the 95% CI half-width; 0 when n < 2.
	HalfWidth float64 `json:"half_width"`
}

// Summarize computes the mean and 95% CI half-width of a sample.
func Summarize(xs []float64) Summary {
	n := len(xs)
	s := Summary{N: n, Mean: Mean(xs)}
	if n >= 2 {
		s.HalfWidth = TCrit95(n-1) * StdDev(xs) / math.Sqrt(float64(n))
	}
	return s
}
