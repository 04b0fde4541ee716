package main

import (
	"math"
	"sort"
	"time"
)

// samples collects one timing in milliseconds (or any unit) per event.
type samples []float64

func (s *samples) add(v float64) { *s = append(*s, v) }

func (s *samples) addDur(d time.Duration, unit time.Duration) {
	s.add(float64(d) / float64(unit))
}

// pct is the nearest-rank percentile (q in (0,1]); NaN for no samples.
// A failed operation is recorded as +Inf, so it misses every limit.
func (s samples) pct(q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	xs := append([]float64(nil), s...)
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

// tailPct is the highest percentile with at least ten samples beyond it.
func tailPct(n int) float64 {
	if n <= 10 {
		return 0
	}
	return 1 - 10/float64(n)
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(values, n=4) computes them
// (exclusive method), which is how the spreads are judged.
func quartiles(vals []float64) (q1, med, q3 float64) {
	xs := append([]float64(nil), vals...)
	sort.Float64s(xs)
	n := len(xs)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return xs[0], xs[0], xs[0]
	}
	at := func(j int) float64 {
		m := float64(n + 1)
		pos := float64(j) * m / 4
		k := int(math.Floor(pos))
		frac := pos - float64(k)
		switch {
		case k < 1:
			return xs[0]
		case k >= n:
			return xs[n-1]
		}
		return xs[k-1] + frac*(xs[k]-xs[k-1])
	}
	return at(1), at(2), at(3)
}
