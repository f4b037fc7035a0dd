package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs by linear
// interpolation between closest ranks; 0 for an empty sample. xs is not
// modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// median is the 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// interdecileMean is the mean of the values between the 10th and the 90th
// percentile: a "typical" value that, unlike the median, does not jump when
// the sample mixes two modes in nearly equal parts (a parallel scan that
// did or did not get its second core in time; adds, updates and deletes in
// one write list) and, unlike the mean, ignores the few wild values.
func interdecileMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	s = s[len(s)/10 : len(s)-len(s)/10]
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// midmean reduces the per-round values of one metric: with three or more
// rounds it drops the lowest and the highest and averages the rest, so one
// round spoiled by a burst of interference cannot move the result, at less
// cost in precision than taking the median of five.
func midmean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) >= 3 {
		s = s[1 : len(s)-1]
	}
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// overRounds reduces each non-empty round with stat and the per-round
// values with midmean.
func overRounds(rounds [][]float64, stat func([]float64) float64) float64 {
	per := make([]float64, 0, len(rounds))
	for _, r := range rounds {
		if len(r) > 0 {
			per = append(per, stat(r))
		}
	}
	return midmean(per)
}

// pct is the stat that takes the q-th percentile.
func pct(q float64) func([]float64) float64 {
	return func(xs []float64) float64 { return percentile(xs, q) }
}

// flatten concatenates rounds.
func flatten(rounds [][]float64) []float64 {
	var out []float64
	for _, r := range rounds {
		out = append(out, r...)
	}
	return out
}
