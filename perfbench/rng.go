package main

import "math"

// rng is splitmix64: a stable, explicit generator so that every input
// the benchmark derives from --seed is the same on every Go version.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream uint64) *rng {
	return &rng{s: seed*0x9e3779b97f4a7c15 ^ stream*0xbf58476d1ce4e5b9}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// float is uniform in (0, 1].
func (r *rng) float() float64 { return (float64(r.next()>>11) + 1) / (1 << 53) }

// exp is an exponential variate with the given mean.
func (r *rng) exp(mean float64) float64 { return -math.Log(r.float()) * mean }

// perm is a Fisher-Yates permutation of 0..n-1.
func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
