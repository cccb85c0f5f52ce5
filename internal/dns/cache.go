package dns

import (
	"time"

	"repro/internal/dnswire"
)

// DefaultMaxEntries is the cache capacity used when MaxEntries is unset.
// The poisoned-A workload caches one entry per queried name, so an
// unbounded map grows forever under a million-client sweep; 64k entries
// keeps the hot set resident while bounding memory.
const DefaultMaxEntries = 64 << 10

// Cache wraps a resolver with TTL-based positive and negative caching.
// Time is supplied by the owner (the simulation's virtual clock) so
// expiry is deterministic in tests. Capacity is bounded: once MaxEntries
// is reached the least-recently-used entry is evicted. Expired entries
// are removed lazily — on the lookup that finds them stale, and from the
// cold end of the LRU list before any capacity eviction.
type Cache struct {
	Inner Resolver
	Now   func() time.Time

	// NegativeTTL bounds how long NXDOMAIN/NODATA responses are kept.
	NegativeTTL time.Duration

	// MaxEntries bounds the cache size; 0 or negative means
	// DefaultMaxEntries. Set before first use.
	MaxEntries int

	cacheState
}

// cacheState is everything about a Cache that world reuse rewinds: the
// entry set in LRU order and the counters. Checkpoint and Restore copy
// it whole through clone.
type cacheState struct {
	entries map[cacheKey]*cacheEntry
	// Intrusive LRU list: head is most-recently-used, tail is coldest.
	head, tail *cacheEntry

	// Hits and Misses count lookups for the benchmark harness;
	// Evictions counts capacity evictions, Expired lazy expiries.
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Expired   uint64
}

type cacheKey struct {
	name  string
	qtype uint16
}

type cacheEntry struct {
	key        cacheKey
	msg        *dnswire.Message
	expires    time.Time
	prev, next *cacheEntry
}

// NewCache builds a cache over inner using now for time.
func NewCache(inner Resolver, now func() time.Time) *Cache {
	return &Cache{Inner: inner, Now: now, NegativeTTL: 60 * time.Second,
		cacheState: cacheState{entries: make(map[cacheKey]*cacheEntry)}}
}

// NewCacheSize builds a cache with an explicit capacity bound.
func NewCacheSize(inner Resolver, now func() time.Time, maxEntries int) *Cache {
	c := NewCache(inner, now)
	c.MaxEntries = maxEntries
	return c
}

func (c *Cache) cap() int {
	if c.MaxEntries > 0 {
		return c.MaxEntries
	}
	return DefaultMaxEntries
}

// Resolve serves from cache when fresh, otherwise consults the inner
// resolver and stores the result for the minimum answer TTL. The
// returned message is a shallow copy with full-capacity slice headers,
// so callers may append to its sections without corrupting later hits.
func (c *Cache) Resolve(q dnswire.Question) (*dnswire.Message, error) {
	key := cacheKey{name: dnswire.CanonicalName(q.Name), qtype: q.Type}
	now := c.Now()
	if e, ok := c.entries[key]; ok {
		if now.Before(e.expires) {
			c.Hits++
			c.moveToFront(e)
			return guarded(e.msg), nil
		}
		// Lazy expiry: drop the stale entry on the lookup that finds it.
		c.remove(e)
		c.Expired++
	}
	c.Misses++
	msg, err := c.Inner.Resolve(q)
	if err != nil {
		return nil, err
	}
	ttl := c.ttlFor(msg)
	if ttl > 0 {
		c.insert(&cacheEntry{key: key, msg: msg, expires: now.Add(ttl)}, now)
	}
	return guarded(msg), nil
}

// guarded returns a shallow copy of m whose section slices have
// capacity clamped to their length: appending to any of them forces a
// reallocation instead of scribbling over the cached backing arrays.
func guarded(m *dnswire.Message) *dnswire.Message {
	cp := *m
	cp.Questions = cp.Questions[:len(cp.Questions):len(cp.Questions)]
	cp.Answers = cp.Answers[:len(cp.Answers):len(cp.Answers)]
	cp.Authorities = cp.Authorities[:len(cp.Authorities):len(cp.Authorities)]
	cp.Additionals = cp.Additionals[:len(cp.Additionals):len(cp.Additionals)]
	return &cp
}

func (c *Cache) insert(e *cacheEntry, now time.Time) {
	// Shed expired entries from the cold end before evicting live ones.
	for c.tail != nil && len(c.entries) >= c.cap() && !now.Before(c.tail.expires) {
		c.Expired++
		c.remove(c.tail)
	}
	for c.tail != nil && len(c.entries) >= c.cap() {
		c.Evictions++
		c.remove(c.tail)
	}
	c.entries[e.key] = e
	c.pushFront(e)
}

func (c *Cache) pushFront(e *cacheEntry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *Cache) moveToFront(e *cacheEntry) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}

func (c *Cache) unlink(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *Cache) remove(e *cacheEntry) {
	c.unlink(e)
	delete(c.entries, e.key)
}

// Len reports the number of cached entries (fresh or stale entries not
// yet lazily expired). It never exceeds the configured capacity.
func (c *Cache) Len() int { return len(c.entries) }

// Flush drops every cached entry.
func (c *Cache) Flush() {
	c.entries = make(map[cacheKey]*cacheEntry)
	c.head, c.tail = nil, nil
}

func (c *Cache) ttlFor(msg *dnswire.Message) time.Duration {
	if msg.Rcode != dnswire.RcodeSuccess || len(msg.Answers) == 0 {
		// Negative caching (RFC 2308): bound by SOA minimum when present.
		neg := c.NegativeTTL
		for _, rr := range msg.Authorities {
			if rr.Type == dnswire.TypeSOA && rr.SOA != nil {
				if soaTTL := time.Duration(rr.SOA.Minimum) * time.Second; soaTTL < neg {
					neg = soaTTL
				}
			}
		}
		return neg
	}
	minTTL := msg.Answers[0].TTL
	for _, rr := range msg.Answers[1:] {
		if rr.TTL < minTTL {
			minTTL = rr.TTL
		}
	}
	return time.Duration(minTTL) * time.Second
}
