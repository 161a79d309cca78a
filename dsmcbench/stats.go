package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"sort"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; NaN for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// sum adds xs.
func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// derive returns the i-th seed derived from the workload seed
// (splitmix64), so every simulation seed and every generated input
// follows from the one seed on the command line.
func derive(seed uint64, i uint64) uint64 {
	z := seed + (i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// rng is a small deterministic generator for the workload inputs.
type rng struct{ state uint64 }

func (r *rng) next() uint64 {
	r.state++
	return derive(r.state, 0)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// hashFloats is the FNV-1a hash of the bit patterns of xs.
func hashFloats(xs []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	return h.Sum64()
}
