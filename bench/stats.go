package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0..1) of vals by linear
// interpolation between order statistics; 0 for an empty slice. vals is
// not modified.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

// spread is the noise figure of a set of runs: the distance between the
// first and third quartile as a share of the median, with the quartiles
// of Python's statistics.quantiles(vals, n=4) — the figure the
// benchmark's bounds are held against. 0 for fewer than two values or a
// zero median.
func spread(vals []float64) float64 {
	m := median(vals)
	if len(vals) < 2 || m == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	quartile := func(i int) float64 {
		n := len(s)
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - 4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return math.Abs(quartile(3)-quartile(1)) / math.Abs(m)
}

func geomean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var s float64
	for _, v := range vals {
		s += math.Log(v)
	}
	return math.Exp(s / float64(len(vals)))
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var s float64
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}
