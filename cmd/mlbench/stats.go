package main

import (
	"math"
	"slices"
)

// median returns the middle value (mean of the two middle values for an even
// count); 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank percentile: the smallest sample with at
// least share p of the samples at or below it, so p90 of 100 samples leaves
// exactly ten beyond it.
func percentile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(math.Ceil(p * float64(n)))
	return s[min(max(rank, 1), n)-1]
}

// geomean weighs a 6 us lookup and a 20 ms scan the same, so a gain on
// either template of a workload shows. Non-positive values are skipped.
func geomean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// geoOver is the geometric mean over templates of one statistic of each
// template's samples.
func geoOver(perTemplate [][]float64, stat func([]float64) float64) float64 {
	vals := make([]float64, len(perTemplate))
	for i, xs := range perTemplate {
		vals[i] = stat(xs)
	}
	return geomean(vals)
}

// iqrShare is the distance between the first and third quartile as a share
// of the median (statistics.quantiles(n=4) of Python: exclusive method).
func iqrShare(xs []float64) float64 {
	n := len(xs)
	m := median(xs)
	if n < 2 || m == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	q := func(k float64) float64 {
		pos := k * float64(n+1) / 4 // 1-based position
		j := int(pos)
		j = min(max(j, 1), n-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return math.Abs(q(3)-q(1)) / math.Abs(m)
}

// verdict classifies how a metric moved from base a to b against the share
// of a (bound) by which it may get worse. noisy marks runs whose canaries,
// drift or spread make the comparison unusable.
func verdict(a, b, bound float64, lowerIsBetter, noisy bool) string {
	if a == 0 || noisy {
		return "unresolved"
	}
	worse := (b - a) / math.Abs(a)
	if !lowerIsBetter {
		worse = -worse
	}
	switch {
	case worse > bound:
		return "regressed"
	case worse < -bound:
		return "improved"
	}
	return "unchanged"
}
