package main

import (
	"math/rand/v2"
	"sort"
)

// Request streams are decks: each class contributes a fixed number of
// requests and the seed only decides their order. Fixed counts make
// every run do identical, countable work, and they let the shares be
// chosen so that the median and the tail each fall inside one class
// (see README.md) instead of on the gap between two.

// class is one request class of a workload and how many requests of it
// a nominal run serves.
type class struct {
	name  string
	count int
}

// newRand returns the benchmark's seeded generator. The stream constant
// separates it from any other use of the same seed.
func newRand(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
}

// deck returns a request stream: class index i repeated
// classes[i].count×scale times. The order is stratified: the k-th of a
// class's c requests sits at position (k+u)/c of the run, u drawn from
// seed, so every class is spread evenly over the run — each samples the
// whole run's host conditions, and no stretch of the run holds more of
// a heavy class than another — while the interleaving of classes
// changes with the seed.
func deck(classes []class, scale int, seed uint64) []int {
	type item struct {
		pos   float64
		class int
	}
	r := newRand(seed)
	var items []item
	for i, c := range classes {
		n := c.count * scale
		for k := 0; k < n; k++ {
			items = append(items, item{(float64(k) + r.Float64()) / float64(n), i})
		}
	}
	sort.Slice(items, func(a, b int) bool { return items[a].pos < items[b].pos })
	out := make([]int, len(items))
	for i, it := range items {
		out[i] = it.class
	}
	return out
}
