package store

import (
	"container/list"
	"sync"

	"osars/internal/obs"
)

// lruCache is the generation-aware summary cache: a plain LRU over
// cacheKey → *Summary with both an entry-count and an approximate
// byte budget. Generations make invalidation implicit — appending
// reviews to an item bumps its generation, so all cache keys minted
// for the old corpus simply stop being requested and age out of the
// LRU; nothing is ever served stale.
type lruCache struct {
	mu         sync.Mutex
	maxEntries int        // ≤ 0 disables the cache entirely
	maxBytes   int64      // ≤ 0 means no byte budget
	ll         *list.List // front = most recently used
	m          map[cacheKey]*list.Element
	bytes      int64
	evictions  uint64
	evicted    *obs.Counter // optional mirror of evictions (nil-safe)
}

type lruEntry struct {
	key  cacheKey
	sum  *Summary
	size int64
}

func newLRU(maxEntries int, maxBytes int64) *lruCache {
	return &lruCache{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		ll:         list.New(),
		m:          make(map[cacheKey]*list.Element),
	}
}

// Get returns the cached summary for key, marking it most recently
// used.
func (c *lruCache) Get(key cacheKey) (*Summary, bool) {
	if c.maxEntries <= 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).sum, true
}

// Add inserts sum under key and evicts from the cold end until both
// budgets hold. A summary alone larger than the byte budget is not
// cached at all (it would immediately evict everything else for a
// single-use entry).
func (c *lruCache) Add(key cacheKey, sum *Summary) {
	if c.maxEntries <= 0 {
		return
	}
	size := summarySize(key, sum)
	if c.maxBytes > 0 && size > c.maxBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok { // racing solver already cached it
		c.ll.MoveToFront(el)
		return
	}
	c.m[key] = c.ll.PushFront(&lruEntry{key: key, sum: sum, size: size})
	c.bytes += size
	for (c.ll.Len() > c.maxEntries) || (c.maxBytes > 0 && c.bytes > c.maxBytes && c.ll.Len() > 1) {
		c.removeElement(c.ll.Back())
		c.evictions++
		c.evicted.Inc()
	}
}

// PurgeItem drops every cached summary of one item (used by Delete so
// a deleted corpus releases its memory immediately instead of aging
// out).
func (c *lruCache) PurgeItem(id string) {
	if c.maxEntries <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for key, el := range c.m {
		if key.id == id {
			c.removeElement(el)
		}
	}
}

// PurgeAll empties the cache (used when a replica installs a full
// snapshot: every cached summary belongs to the replaced corpus).
func (c *lruCache) PurgeAll() {
	if c.maxEntries <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	c.m = make(map[cacheKey]*list.Element)
	c.bytes = 0
}

func (c *lruCache) removeElement(el *list.Element) {
	e := el.Value.(*lruEntry)
	c.ll.Remove(el)
	delete(c.m, e.key)
	c.bytes -= e.size
}

func (c *lruCache) Len() int {
	if c.maxEntries <= 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

func (c *lruCache) Bytes() int64 {
	if c.maxEntries <= 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// itemEntries counts the cached summaries of one item (test helper
// for the delete-purges-cache invariant).
func (c *lruCache) itemEntries(id string) int {
	if c.maxEntries <= 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for key := range c.m {
		if key.id == id {
			n++
		}
	}
	return n
}

func (c *lruCache) Evictions() uint64 {
	if c.maxEntries <= 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictions
}

// summarySize approximates the resident size of one cache entry:
// struct headers plus the backing arrays of the selection slices and
// the bytes of every retained string, and the response body a server
// keeps with the summary (Summary.KeepBody), which repeats every string
// between keys, quotes and numbers.
func summarySize(key cacheKey, sum *Summary) int64 {
	const (
		structOverhead = 192 // Summary + lruEntry + list.Element + map slot
		// The kept body's bytes besides its strings: about bodyOverhead
		// per body (its slice, keys and numbers), bodyPair per pair and
		// bodyString per sentence or review ID.
		bodyOverhead, bodyPair, bodyString = 160, 48, 4
	)
	n := int64(structOverhead)
	n += int64(len(key.id)) + int64(len(key.ver))
	n += int64(8 * len(sum.Indices))
	if sum.Method == MethodGreedy {
		// A greedy selection's array also holds its k+1 prefix costs
		// (summarize.Result.PrefixCost).
		n += int64(8 * (len(sum.Indices) + 1))
	}
	n += int64(16 * len(sum.Pairs))
	n += int64(16 * (len(sum.Sentences) + len(sum.ReviewIDs) + len(sum.Concepts))) // string headers
	strs := int64(len(sum.ItemID)) + int64(len(sum.Ontology)) + int64(len(sum.OntologyVersion))
	for _, s := range sum.Sentences {
		strs += int64(len(s))
	}
	for _, id := range sum.ReviewIDs {
		strs += int64(len(id))
	}
	for _, c := range sum.Concepts {
		strs += int64(len(c))
	}
	n += 2 * strs // once in the fields, once in the body
	n += bodyOverhead + int64(bodyPair*len(sum.Pairs)) + int64(bodyString*(len(sum.Sentences)+len(sum.ReviewIDs)))
	return n
}
