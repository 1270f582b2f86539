package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle value (the mean of the two middle values
// for an even count), or 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail is the highest whole percentile that still has at least
// tailBeyond samples above it (nearest-rank), with the percentile and
// the sample count it was taken from.
type tail struct {
	Value      float64 `json:"value"`
	Percentile int     `json:"percentile"`
	Samples    int     `json:"samples"`
}

const tailBeyond = 10

// tailOf computes the tail of xs, never below the median. With too few
// samples for the median to have tailBeyond samples beyond it, it
// reports the maximum as percentile 100.
func tailOf(xs []float64) tail {
	n := len(xs)
	if n == 0 {
		return tail{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for p := 99; p >= 50; p-- {
		rank := int(math.Ceil(float64(p) * float64(n) / 100))
		if n-rank >= tailBeyond {
			return tail{Value: s[rank-1], Percentile: p, Samples: n}
		}
	}
	return tail{Value: s[n-1], Percentile: 100, Samples: n}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
