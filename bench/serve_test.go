package main

import (
	"math/rand/v2"
	"reflect"
	"testing"
	"time"

	"dresar/internal/serve"
)

// The open-loop schedule is a pure function of the seed: the same seed
// reproduces it exactly, another seed draws another one, and every
// seed carries the same number of hits and misses, with no miss spec
// repeated or equal to a hit spec.
func TestOpenLoopScheduleReproducible(t *testing.T) {
	const d = 20 * time.Second
	a, b := openLoopSchedule(7, d, serveMix), openLoopSchedule(7, d, serveMix)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed drew two schedules")
	}
	c := openLoopSchedule(8, d, serveMix)
	if reflect.DeepEqual(a, c) {
		t.Fatal("seeds 7 and 8 drew the same schedule")
	}
	pool := len(missPool(serveMix, rand.New(rand.NewPCG(1, 1))))
	for _, s := range [][]arrival{a, c} {
		hits, misses := 0, map[string]bool{}
		for i, x := range s {
			if x.at < 0 || x.at >= d || i > 0 && x.at < s[i-1].at {
				t.Fatalf("arrival %d at %v: out of order or outside the run", i, x.at)
			}
			if x.hit >= 0 {
				hits++
				continue
			}
			key := serve.CacheKey(x.miss)
			for _, h := range serveMix.HitSpecs {
				if serve.CacheKey(h) == key {
					t.Fatalf("miss %v is a hit spec", x.miss)
				}
			}
			if misses[key] {
				t.Fatalf("miss %v drawn twice", x.miss)
			}
			misses[key] = true
		}
		if hits != int(serveMix.HitRate*d.Seconds()) || len(misses) != min(pool, int(serveMix.MissRate*d.Seconds())) {
			t.Fatalf("%d hits and %d misses, not the expected counts", hits, len(misses))
		}
	}
}
