// Package pq implements the max-heap behind the greedy summarizer
// (paper §4.4, Algorithm 2).
//
// The queue stores items identified by dense integer IDs in [0, n) and
// orders them by a float64 key, breaking key ties by the smaller ID —
// the tie-break the greedy's equivalence to its rebuild-everything
// reference relies on. A position index rejects pushing an item that
// is already enqueued, and the backing arrays are reusable across
// solves (Reset).
package pq

import "fmt"

// Max is a max-heap keyed by float64. Item IDs must be dense integers
// in [0, capacity). The zero value is not usable; construct with
// NewMax.
type Max struct {
	heap []int     // heap[i] = item id at heap position i
	pos  []int     // pos[id] = heap position of id, or -1 if absent
	key  []float64 // key[id] = current key of id (valid while present)
}

// NewMax returns an empty max-heap able to hold item IDs in
// [0, capacity).
func NewMax(capacity int) *Max {
	pos := make([]int, capacity)
	for i := range pos {
		pos[i] = -1
	}
	return &Max{
		heap: make([]int, 0, capacity),
		pos:  pos,
		key:  make([]float64, capacity),
	}
}

// Reset empties the queue and re-dimensions it for item IDs in
// [0, capacity), reusing the existing backing arrays when they are
// large enough. After Reset the queue behaves exactly like one freshly
// returned by NewMax(capacity); pooled greedy scratch relies on this
// to reuse heaps across solves without allocation.
func (m *Max) Reset(capacity int) {
	if cap(m.pos) < capacity {
		m.pos = make([]int, capacity)
		m.key = make([]float64, capacity)
		m.heap = make([]int, 0, capacity)
	}
	m.pos = m.pos[:capacity]
	m.key = m.key[:capacity]
	m.heap = m.heap[:0]
	for i := range m.pos {
		m.pos[i] = -1
	}
}

// Len reports the number of items currently enqueued.
func (m *Max) Len() int { return len(m.heap) }

// Push inserts item id with the given key. It panics if id is out of
// range or already enqueued.
func (m *Max) Push(id int, key float64) {
	if id < 0 || id >= len(m.pos) {
		panic(fmt.Sprintf("pq: Push id %d out of range [0,%d)", id, len(m.pos)))
	}
	if m.pos[id] >= 0 {
		panic(fmt.Sprintf("pq: Push of already-enqueued item %d", id))
	}
	m.key[id] = key
	m.pos[id] = len(m.heap)
	m.heap = append(m.heap, id)
	m.up(len(m.heap) - 1)
}

// BuildFrom discards the current contents and heapifies all capacity
// items using keys[id] as the key of item id, in O(n). keys must have
// length equal to the capacity given to NewMax.
func (m *Max) BuildFrom(keys []float64) {
	if len(keys) != len(m.pos) {
		panic(fmt.Sprintf("pq: BuildFrom got %d keys for capacity %d", len(keys), len(m.pos)))
	}
	m.heap = m.heap[:0]
	copy(m.key, keys)
	for id := range keys {
		m.pos[id] = id
		m.heap = append(m.heap, id)
	}
	for i := len(m.heap)/2 - 1; i >= 0; i-- {
		m.down(i)
	}
}

// PopMax removes and returns the item with the largest key and that
// key; among equal keys the smallest ID pops first. It panics on an
// empty queue.
func (m *Max) PopMax() (id int, key float64) {
	if len(m.heap) == 0 {
		panic("pq: PopMax on empty queue")
	}
	id = m.heap[0]
	key = m.key[id]
	last := len(m.heap) - 1
	m.swap(0, last)
	m.heap = m.heap[:last]
	m.pos[id] = -1
	m.down(0)
	return id, key
}

func (m *Max) less(i, j int) bool {
	a, b := m.heap[i], m.heap[j]
	if m.key[a] != m.key[b] {
		return m.key[a] > m.key[b] // max-heap: larger key floats up
	}
	return a < b // deterministic tie-break by id
}

func (m *Max) swap(i, j int) {
	m.heap[i], m.heap[j] = m.heap[j], m.heap[i]
	m.pos[m.heap[i]] = i
	m.pos[m.heap[j]] = j
}

func (m *Max) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !m.less(i, parent) {
			return
		}
		m.swap(i, parent)
		i = parent
	}
}

func (m *Max) down(i int) {
	n := len(m.heap)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		best := left
		if right := left + 1; right < n && m.less(right, left) {
			best = right
		}
		if !m.less(best, i) {
			return
		}
		m.swap(i, best)
		i = best
	}
}
