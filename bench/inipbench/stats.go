package main

import (
	"math"
	"sort"
	"time"
)

// sortedCopy returns the values in ascending order without touching
// the caller's slice.
func sortedCopy(vs []float64) []float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s
}

// percentile is the p-th percentile (0..100) by linear interpolation
// between closest ranks, so percentile(vs, 50) is the usual median. It
// returns NaN for an empty slice.
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(vs)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + (s[lo+1]-s[lo])*frac
}

func median(vs []float64) float64 { return percentile(vs, 50) }

// mean is the arithmetic mean, NaN for an empty slice.
func mean(vs []float64) float64 {
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// beyond counts the samples strictly above v: the support a tail
// percentile has. A percentile is reported only with the count, and is
// trustworthy when at least ten samples lie beyond it.
func beyond(vs []float64, v float64) int {
	n := 0
	for _, x := range vs {
		if x > v {
			n++
		}
	}
	return n
}

// quartiles returns the first and third quartiles exactly as Python's
// statistics.quantiles(values, n=4) computes them (the default
// "exclusive" method), so spreads printed here match the ones an
// external checker derives from the same values. A single value is its
// own quartiles.
func quartiles(vs []float64) (q1, q3 float64) {
	s := sortedCopy(vs)
	ld := len(s)
	switch ld {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// relSpread is the interquartile distance as a share of the median.
func relSpread(vs []float64) float64 {
	q1, q3 := quartiles(vs)
	return (q3 - q1) / math.Abs(median(vs))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
