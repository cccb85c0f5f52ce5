package dns

// CacheCheckpoint is an opaque copy of a Cache's state (the entry set
// in exact LRU order plus the lookup counters), captured with
// Cache.Checkpoint and restored with Cache.Restore for testbed world
// reuse. Cached messages are shared, not cloned: the cache treats them
// as immutable.
type CacheCheckpoint struct{ s cacheState }

// Checkpoint copies the cache's entry set (preserving LRU order) and
// counters.
func (c *Cache) Checkpoint() *CacheCheckpoint { return &CacheCheckpoint{c.cacheState.clone()} }

// Restore rewinds the cache to a previously captured Checkpoint.
func (c *Cache) Restore(cp *CacheCheckpoint) { c.cacheState = cp.s.clone() }

// clone copies s with a fresh entry map and intrusive LRU list in the
// same order.
func (s cacheState) clone() cacheState {
	c := s
	c.entries = make(map[cacheKey]*cacheEntry, len(s.entries))
	c.head, c.tail = nil, nil
	for e := s.head; e != nil; e = e.next {
		cp := &cacheEntry{key: e.key, msg: e.msg, expires: e.expires, prev: c.tail}
		if c.tail == nil {
			c.head = cp
		} else {
			c.tail.next = cp
		}
		c.tail = cp
		c.entries[e.key] = cp
	}
	return c
}
