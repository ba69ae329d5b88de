package server

import (
	"math"
	"sync"
)

// cacheKey identifies one build result: the graph's content fingerprint
// plus the full build configuration. Because every build is
// bit-deterministic in exactly this tuple (docs/determinism.md), the
// cached response body is byte-identical to what a fresh computation
// would produce — cache hits are not approximations.
type cacheKey struct {
	fp uint64
	bk buildKey
}

// buildKey is the configuration half of a cache key and the retention key
// for built hierarchies on a registry entry. Floats are keyed by their
// IEEE bits: the engines are bit-deterministic in the float values, so
// distinct bits are distinct configurations. Worker count is deliberately
// absent — it never changes a result bit.
type buildKey struct {
	app      string
	weighted bool
	seed     uint64
	betaBits uint64
}

func newBuildKey(app string, weighted bool, seed uint64, beta float64) buildKey {
	return buildKey{
		app:      app,
		weighted: weighted,
		seed:     seed,
		betaBits: math.Float64bits(beta),
	}
}

// FNV-1a, the repo's fingerprint fold.
const (
	fnvOffset uint64 = 0xcbf29ce484222325
	fnvPrime  uint64 = 0x00000100000001b3
)

func fnvU64(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= fnvPrime
		x >>= 8
	}
	return h
}

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

func (k cacheKey) hash() uint64 {
	h := fnvU64(fnvOffset, k.fp)
	h = fnvString(h, k.bk.app)
	if k.bk.weighted {
		h = fnvU64(h, 1)
	}
	h = fnvU64(h, k.bk.seed)
	h = fnvU64(h, k.bk.betaBits)
	return h
}

// resultCache is the sharded build-response cache: shard by key hash,
// lock per shard, exact response bytes as values. Entries live until
// their graph is evicted.
type resultCache struct {
	shards [cacheShards]cacheShard
}

// cacheShards is the result cache's shard count.
const cacheShards = 16

type cacheShard struct {
	mu sync.RWMutex
	m  map[cacheKey][]byte
}

func newResultCache() *resultCache {
	c := &resultCache{}
	for i := range c.shards {
		c.shards[i].m = make(map[cacheKey][]byte)
	}
	return c
}

func (c *resultCache) shard(k cacheKey) *cacheShard {
	return &c.shards[k.hash()%cacheShards]
}

func (c *resultCache) get(k cacheKey) ([]byte, bool) {
	sh := c.shard(k)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	body, ok := sh.m[k]
	return body, ok
}

// put stores body under k; the first writer wins on a race (concurrent
// identical builds produce byte-identical bodies, so it cannot matter).
func (c *resultCache) put(k cacheKey, body []byte) {
	sh := c.shard(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.m[k]; !ok {
		sh.m[k] = body
	}
}

// dropGraph removes every cached response for the graph fp (eviction).
func (c *resultCache) dropGraph(fp uint64) {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for k := range sh.m {
			if k.fp == fp {
				delete(sh.m, k)
			}
		}
		sh.mu.Unlock()
	}
}

func (c *resultCache) size() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}
