package wtls

import (
	"container/list"
	"sync"
	"time"

	"repro/internal/obs"
)

// mSessionEvictions counts sessions dropped by LRU pressure or TTL
// expiry (not overwrites of an existing key).
var mSessionEvictions = obs.C("wtls.session_evictions")

// sessionShards stripes the cache locks. A gateway resuming millions of
// sessions hits the cache on every handshake from every worker; 16
// independently-locked shards keep that traffic from serializing on one
// mutex while staying small enough to iterate for Len.
const sessionShards = 16

// DefaultSessionCacheEntries is the entry cap of NewSessionCache.
const DefaultSessionCacheEntries = 4096

// SessionCache stores resumable sessions, keyed by server name on
// clients and by session ID on servers. It is sharded by key hash with
// per-shard locks, and optionally bounds its size (LRU eviction) and
// entry age (TTL). NewSessionCache bounds it at
// DefaultSessionCacheEntries; NewSessionCacheSized(0, 0) keeps every
// entry forever.
type SessionCache struct {
	maxEntries int           // total cap across shards; 0 = unlimited
	ttl        time.Duration // 0 = no expiry
	now        func() time.Time
	shards     [sessionShards]sessionShard
}

type sessionShard struct {
	mu  sync.Mutex
	m   map[string]*list.Element
	lru list.List // front = most recently used
}

type sessionEntry struct {
	key     string
	s       *session
	savedAt time.Time
}

// NewSessionCache creates a session cache holding at most
// DefaultSessionCacheEntries sessions, evicting the least recently used
// (no TTL). A server's cache otherwise grows by one entry per full
// handshake for as long as it runs; a session resumed every few
// handshakes stays recently used and is never evicted. Evictions count
// in wtls.session_evictions.
func NewSessionCache() *SessionCache {
	return NewSessionCacheSized(DefaultSessionCacheEntries, 0)
}

// NewSessionCacheSized creates a session cache holding at most
// maxEntries sessions (0 = unlimited), each resumable for at most ttl
// after it was stored (0 = forever). Exceeding the cap evicts the least
// recently used entry.
func NewSessionCacheSized(maxEntries int, ttl time.Duration) *SessionCache {
	sc := &SessionCache{maxEntries: maxEntries, ttl: ttl, now: time.Now}
	for i := range sc.shards {
		sc.shards[i].m = make(map[string]*list.Element)
	}
	return sc
}

// shard picks the stripe for a key (FNV-1a).
func (sc *SessionCache) shard(key string) *sessionShard {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return &sc.shards[h%sessionShards]
}

// shardCap is the per-shard LRU bound implied by maxEntries.
func (sc *SessionCache) shardCap() int {
	if sc.maxEntries <= 0 {
		return 0
	}
	c := (sc.maxEntries + sessionShards - 1) / sessionShards
	if c < 1 {
		c = 1
	}
	return c
}

func (sc *SessionCache) put(key string, s *session) {
	sh := sc.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.m[key]; ok {
		ent := el.Value.(*sessionEntry)
		ent.s = s
		ent.savedAt = sc.now()
		sh.lru.MoveToFront(el)
		return
	}
	sh.m[key] = sh.lru.PushFront(&sessionEntry{key: key, s: s, savedAt: sc.now()})
	if limit := sc.shardCap(); limit > 0 && sh.lru.Len() > limit {
		oldest := sh.lru.Back()
		ent := oldest.Value.(*sessionEntry)
		sh.lru.Remove(oldest)
		delete(sh.m, ent.key)
		mSessionEvictions.Inc()
	}
}

func (sc *SessionCache) get(key string) *session {
	sh := sc.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	el, ok := sh.m[key]
	if !ok {
		return nil
	}
	ent := el.Value.(*sessionEntry)
	if sc.ttl > 0 && sc.now().Sub(ent.savedAt) >= sc.ttl {
		sh.lru.Remove(el)
		delete(sh.m, key)
		mSessionEvictions.Inc()
		return nil
	}
	sh.lru.MoveToFront(el)
	return ent.s
}

// Size reports the number of cached sessions. Expired entries that have
// not been touched since their TTL elapsed still count; they are
// reclaimed lazily on access.
func (sc *SessionCache) Size() int {
	n := 0
	for i := range sc.shards {
		sh := &sc.shards[i]
		sh.mu.Lock()
		n += len(sh.m)
		sh.mu.Unlock()
	}
	return n
}

// Len reports the number of cached sessions (alias of Size, kept for
// existing callers).
func (sc *SessionCache) Len() int { return sc.Size() }
