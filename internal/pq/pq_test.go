package pq

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestPushPopOrdered(t *testing.T) {
	m := NewMax(10)
	keys := []float64{3, 1, 4, 1.5, 9, 2.6, 5, 3.5, 8, 7}
	for id, k := range keys {
		m.Push(id, k)
	}
	if m.Len() != 10 {
		t.Fatalf("Len = %d, want 10", m.Len())
	}
	prev := 1e18
	for m.Len() > 0 {
		_, k := m.PopMax()
		if k > prev {
			t.Fatalf("pop order violated: %v after %v", k, prev)
		}
		prev = k
	}
}

func TestBuildFrom(t *testing.T) {
	keys := []float64{5, 2, 8, 1, 9, 3}
	m := NewMax(len(keys))
	m.BuildFrom(keys)
	want := append([]float64(nil), keys...)
	sort.Sort(sort.Reverse(sort.Float64Slice(want)))
	for i, w := range want {
		_, k := m.PopMax()
		if k != w {
			t.Fatalf("pop %d = %v, want %v", i, k, w)
		}
	}
}

func TestReuseAfterPop(t *testing.T) {
	m := NewMax(3)
	m.Push(0, 1)
	m.PopMax()
	m.Push(0, 2) // re-push same id after pop must work
	if id, k := m.PopMax(); id != 0 || k != 2 {
		t.Fatalf("re-pushed item wrong: (%d,%v)", id, k)
	}
}

func TestPanicsOnMisuse(t *testing.T) {
	assertPanics := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	m := NewMax(2)
	assertPanics("PopMax empty", func() { m.PopMax() })
	assertPanics("Push out of range", func() { m.Push(2, 0) })
	assertPanics("Push negative", func() { m.Push(-1, 0) })
	m.Push(0, 1)
	assertPanics("double Push", func() { m.Push(0, 2) })
	assertPanics("BuildFrom wrong length", func() { m.BuildFrom([]float64{1}) })
}

// TestQuickHeapOrder is a property test: for any sequence of keys,
// popping everything yields a non-increasing sequence, and every pushed
// key appears exactly once.
func TestQuickHeapOrder(t *testing.T) {
	f := func(keys []float64) bool {
		if len(keys) > 512 {
			keys = keys[:512]
		}
		m := NewMax(len(keys))
		for id, k := range keys {
			m.Push(id, k)
		}
		got := make([]float64, 0, len(keys))
		prev := 0.0
		for i := 0; m.Len() > 0; i++ {
			_, k := m.PopMax()
			if i > 0 && k > prev {
				return false
			}
			prev = k
			got = append(got, k)
		}
		want := append([]float64(nil), keys...)
		sort.Float64s(want)
		sort.Float64s(got)
		for i := range want {
			if want[i] != got[i] && !(want[i] != want[i] && got[i] != got[i]) { // allow NaN
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRandomOps interleaves pushes and pops against a naive
// reference. Keys come from a small integer range so ties are common:
// every pop must return the maximum key and, among equal keys, the
// smallest ID.
func TestQuickRandomOps(t *testing.T) {
	const n = 64
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		m := NewMax(n)
		ref := map[int]float64{}
		for step := 0; step < 500; step++ {
			id := rng.Intn(n)
			if _, in := ref[id]; rng.Intn(2) == 0 && !in {
				k := float64(rng.Intn(8))
				m.Push(id, k)
				ref[id] = k
			} else if m.Len() > 0 {
				pid, pk := m.PopMax()
				bestID, best := -1, 0.0
				for rid, v := range ref {
					if bestID < 0 || v > best || (v == best && rid < bestID) {
						bestID, best = rid, v
					}
				}
				if pid != bestID || pk != best {
					t.Fatalf("trial %d step %d: PopMax = (%d,%v), reference (%d,%v)", trial, step, pid, pk, bestID, best)
				}
				delete(ref, pid)
			}
			if m.Len() != len(ref) {
				t.Fatalf("trial %d step %d: Len %d != reference %d", trial, step, m.Len(), len(ref))
			}
		}
	}
}
