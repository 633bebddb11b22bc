package main

import (
	"math"
	"sort"
	"time"
)

func sortSlice[T any](xs []T, less func(a, b T) bool) {
	sort.Slice(xs, func(i, j int) bool { return less(xs[i], xs[j]) })
}

// quantile is the exact nearest-rank quantile of the raw samples (0 when
// there are none; callers that report it check the count first).
func quantile(xs []time.Duration, q float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), xs...)
	sortSlice(s, func(a, b time.Duration) bool { return a < b })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []time.Duration) time.Duration { return quantile(xs, 0.5) }

func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[(len(s)-1)/2]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
