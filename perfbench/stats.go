package main

import (
	"math"
	"math/rand/v2"
	"sort"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (0 < q <= 1): the
// smallest sample with at least a fraction q of the samples at or
// below it. It never interpolates, so every reported percentile is a
// value that was actually measured. Empty input reads 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// splitmix64 spreads a small seed over 64 bits; workload inputs derive
// every random choice from it so the same seed gives the same inputs.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// openLoop returns the due times of a Poisson arrival process at rate
// per second over window, starting from 0. The generator sends each
// request when it is due, whether or not earlier ones have finished.
func openLoop(rng *rand.Rand, rate float64, window time.Duration) []time.Duration {
	var due []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= window {
			return due
		}
		due = append(due, at)
	}
}

// lateness is how far behind schedule the generator sent each request,
// in ms, given the due offsets and the offsets it actually sent at.
// Early sends (impossible with a sleeping generator, but cheap to
// guard) count as 0.
func lateness(due, sent []time.Duration) []float64 {
	out := make([]float64, len(due))
	for i := range due {
		if d := sent[i] - due[i]; d > 0 {
			out[i] = ms(d)
		}
	}
	return out
}
