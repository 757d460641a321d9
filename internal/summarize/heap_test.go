package summarize

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestHeapRandomOps drives the packed heap through the greedy's own
// operations — build, refresh the root in place, pop the root — with
// gains drawn from 8 integers, so ties are common. Every root must be
// the reference maximum by (gain descending, index ascending), and
// draining the heap must pop the remaining candidates in exactly that
// sorted order.
func TestHeapRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(64)
		idBits, ok := packBits(7, n)
		if !ok {
			t.Fatalf("n=%d: gains below 8 do not pack", n)
		}
		ref := make(map[int]int, n) // candidate → gain, while enqueued
		h := make([]uint64, n)
		for u := range h {
			ref[u] = rng.Intn(8)
			h[u] = entry(ref[u], u, idBits)
		}
		heapify(h)
		for len(h) > 0 {
			bestU := -1
			for u, gain := range ref {
				if bestU < 0 || gain > ref[bestU] || (gain == ref[bestU] && u < bestU) {
					bestU = u
				}
			}
			u := candidate(h[0], idBits)
			if u != bestU || h[0]>>idBits != uint64(ref[u]) {
				t.Fatalf("trial %d: root is (%d, gain %d), reference (%d, gain %d)",
					trial, u, h[0]>>idBits, bestU, ref[bestU])
			}
			if rng.Intn(2) == 0 {
				// Refresh: overwrite the root with any gain and restore
				// the heap, as a stale greedy pop does.
				ref[u] = rng.Intn(8)
				h[0] = entry(ref[u], u, idBits)
				siftDown(h, 0)
				continue
			}
			if rng.Intn(4) == 0 {
				// Drain: the rest pops in (gain desc, index asc) order.
				want := make([]int, 0, len(ref))
				for v := range ref {
					want = append(want, v)
				}
				sort.Slice(want, func(i, j int) bool {
					a, b := want[i], want[j]
					return ref[a] > ref[b] || (ref[a] == ref[b] && a < b)
				})
				for i, v := range want {
					if got := candidate(h[0], idBits); got != v {
						t.Fatalf("trial %d: drain pop %d = %d, want %d", trial, i, got, v)
					}
					h = popMax(h)
				}
				break
			}
			h = popMax(h)
			delete(ref, u)
		}
	}
}

// TestPackBits pins the fallback boundary: with idBits = bits.Len(n),
// an empty-summary cost of 2^(64−idBits) − 1 packs and round-trips
// through entry and candidate, and 2^(64−idBits) does not pack. At
// n = 0 no index bits are spent, so every uint64 cost packs.
func TestPackBits(t *testing.T) {
	for _, tc := range []struct {
		n      int
		idBits uint
	}{{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {1 << 20, 21}} {
		top := uint64(math.MaxUint64) >> tc.idBits // 2^(64−idBits) − 1
		idBits, ok := packBits(top, tc.n)
		if idBits != tc.idBits || !ok {
			t.Fatalf("n=%d: packBits(2^%d−1) = (%d, %v), want (%d, true)",
				tc.n, 64-tc.idBits, idBits, ok, tc.idBits)
		}
		if tc.n == 0 {
			continue
		}
		if _, ok := packBits(top+1, tc.n); ok {
			t.Fatalf("n=%d: packBits(2^%d) packs, want the fallback", tc.n, 64-tc.idBits)
		}
		for _, u := range []int{0, tc.n - 1} {
			e := entry(int(top), u, idBits)
			if e>>idBits != top || candidate(e, idBits) != u {
				t.Fatalf("n=%d u=%d: entry %#x does not round-trip gain %d", tc.n, u, e, top)
			}
		}
	}
}
