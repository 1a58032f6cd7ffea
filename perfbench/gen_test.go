package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// streams generates every workload's request stream for a seed.
func streams(seed uint64) map[string]any {
	svc, kinds := serviceStream(seed, 1)
	return map[string]any{
		"lab":     deck(labClasses, 1, seed),
		"explore": deck(exploreClasses, 1, seed),
		"service": []any{svc, kinds},
	}
}

func TestStreamRepeatsPerSeed(t *testing.T) {
	a, b, c := streams(7), streams(7), streams(8)
	for name := range a {
		if !reflect.DeepEqual(a[name], b[name]) {
			t.Errorf("%s: the same seed gave two different streams", name)
		}
		if reflect.DeepEqual(a[name], c[name]) {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", name)
		}
	}
}

func TestDeckKeepsClassCounts(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		for _, scale := range []int{1, 2} {
			got := map[int]int{}
			for _, ci := range deck(labClasses, scale, seed) {
				got[ci]++
			}
			for i, c := range labClasses {
				if got[i] != c.count*scale {
					t.Errorf("seed %d scale %d: %s has %d requests, want %d", seed, scale, c.name, got[i], c.count*scale)
				}
			}
		}
	}
}

// TestServiceTiersAreCertain replays a stream against a model of the
// daemon — a one-entry memory cache holding the last result it served,
// and a disk tier holding every result computed — and checks that each
// request's expected tier is the one that must serve it.
func TestServiceTiersAreCertain(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 4} {
		stream, kinds := serviceStream(seed, 1)
		onDisk := map[int]bool{}
		for i := 0; i < svcPoolSize; i++ {
			onDisk[i] = true
		}
		inMemory := -1
		tiers := map[string]int{}
		for i, q := range stream {
			var want string
			switch {
			case q.spec == inMemory:
				want = tierCache
			case onDisk[q.spec]:
				want = tierDisk
			default:
				want = tierCompute
			}
			if q.tier != want {
				t.Fatalf("seed %d request %d: stream expects %s, the daemon serves %s", seed, i, q.tier, want)
			}
			onDisk[q.spec] = true
			inMemory = q.spec
			tiers[q.tier]++
		}
		if tiers[tierCache] != svcHits || tiers[tierDisk] != svcHeads[2].count ||
			tiers[tierCompute] != svcHeads[0].count+svcHeads[1].count {
			t.Errorf("seed %d: tier counts %v", seed, tiers)
		}
		if len(kinds) != svcPoolSize+tiers[tierCompute] {
			t.Errorf("seed %d: %d specs for %d computes", seed, len(kinds), tiers[tierCompute])
		}
	}
}

// TestPercentilesFallInsideOneClass checks the class shares: with the
// classes ordered by latency, the median rank and the tail rank each
// lie at least two requests away from a class boundary.
func TestPercentilesFallInsideOneClass(t *testing.T) {
	for name, counts := range map[string][]int{
		"lab":     counts(labClasses),
		"explore": counts(exploreClasses),
		// memory hits, fig7 computes, then the task-burst trace requests
		"service": {svcHits, svcHeads[0].count, svcHeads[1].count + svcHeads[2].count},
	} {
		n := 0
		for _, c := range counts {
			n += c
		}
		for _, rank := range []int{n / 2, n - tailBeyond - 1} {
			lo := 0
			for _, c := range counts {
				if rank < lo+c {
					if rank-lo < 2 || lo+c-1-rank < 2 {
						t.Errorf("%s: rank %d of %d is within two of a class boundary [%d, %d)", name, rank, n, lo, lo+c)
					}
					break
				}
				lo += c
			}
		}
	}
}

func counts(cs []class) []int {
	var out []int
	for _, c := range cs {
		out = append(out, c.count)
	}
	return out
}

// TestCatalogueMatchesBenchmarkJSON keeps the per-layer metrics a traced
// run reports identical to those BENCHMARK.json declares.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		PerLayer []struct {
			Name, Unit string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	cat := layerCatalogue()
	if len(cat) != len(bj.PerLayer) {
		t.Fatalf("catalogue has %d metrics, BENCHMARK.json %d", len(cat), len(bj.PerLayer))
	}
	for i, m := range cat {
		if bj.PerLayer[i].Name != m.name || bj.PerLayer[i].Unit != m.unit {
			t.Errorf("metric %d: catalogue %s (%s), BENCHMARK.json %s (%s)", i, m.name, m.unit, bj.PerLayer[i].Name, bj.PerLayer[i].Unit)
		}
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	v, pct, n := tail(xs)
	if v != 90 || pct != 90 || n != 100 {
		t.Errorf("tail = %v at p%v of %d, want 90 at p90 of 100", v, pct, n)
	}
}
