package natsim

import (
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
	"time"
)

// TestSortByTimeMatchesSliceStable checks SortByTime against
// sort.SliceStable with At.Before on random datagrams with many equal
// timestamps, on times that carry a monotonic clock reading, on
// already-sorted input and on reversed input.
func TestSortByTimeMatchesSliceStable(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	randomFrom := func(base time.Time, n, distinct int) []Datagram {
		ds := make([]Datagram, n)
		for i := range ds {
			ds[i] = Datagram{
				At:      base.Add(time.Duration(rng.IntN(distinct)) * time.Millisecond),
				Payload: []byte{byte(i), byte(i >> 8)},
			}
		}
		return ds
	}
	random := func(n, distinct int) []Datagram {
		return randomFrom(time.Date(2025, 3, 1, 12, 0, 0, 0, time.UTC), n, distinct)
	}
	cases := map[string][]Datagram{
		"empty":      nil,
		"one":        random(1, 1),
		"all-equal":  random(300, 1),
		"many-equal": random(1000, 20),
		"spread":     random(1000, 1_000_000),
		"monotonic":  randomFrom(time.Now(), 1000, 20),
	}
	sorted := random(500, 50)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].At.Before(sorted[j].At) })
	cases["sorted"] = sorted
	reversed := slices.Clone(sorted)
	slices.Reverse(reversed)
	cases["reversed"] = reversed
	for name, in := range cases {
		want := slices.Clone(in)
		sort.SliceStable(want, func(i, j int) bool { return want[i].At.Before(want[j].At) })
		got := slices.Clone(in)
		SortByTime(got)
		for i := range want {
			if !got[i].At.Equal(want[i].At) || string(got[i].Payload) != string(want[i].Payload) {
				t.Fatalf("%s: position %d holds datagram %v at %v, want %v at %v",
					name, i, got[i].Payload, got[i].At, want[i].Payload, want[i].At)
			}
		}
	}
}
