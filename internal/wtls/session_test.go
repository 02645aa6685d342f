package wtls

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

func testSession(id byte) *session {
	return &session{id: []byte{id}, master: []byte{id, id}, suiteID: 0x000A}
}

// sameShardKeys returns n distinct keys hashing to one shard.
func sameShardKeys(sc *SessionCache, n int) []string {
	want := sc.shard("seed-key")
	keys := []string{"seed-key"}
	for i := 0; len(keys) < n; i++ {
		k := fmt.Sprintf("key-%d", i)
		if sc.shard(k) == want {
			keys = append(keys, k)
		}
	}
	return keys
}

func TestSessionCachePutGetOverwrite(t *testing.T) {
	sc := NewSessionCache()
	if got := sc.get("missing"); got != nil {
		t.Fatal("get on empty cache returned a session")
	}
	sc.put("a", testSession(1))
	sc.put("b", testSession(2))
	if got := sc.get("a"); got == nil || got.id[0] != 1 {
		t.Fatalf("get(a) = %v", got)
	}
	sc.put("a", testSession(3))
	if got := sc.get("a"); got == nil || got.id[0] != 3 {
		t.Fatal("overwrite did not replace the session")
	}
	if sc.Size() != 2 || sc.Len() != 2 {
		t.Fatalf("Size=%d Len=%d, want 2", sc.Size(), sc.Len())
	}
}

func TestSessionCacheLRUEviction(t *testing.T) {
	// Total cap 2*sessionShards → per-shard LRU depth 2.
	sc := NewSessionCacheSized(2*sessionShards, 0)
	keys := sameShardKeys(sc, 4)

	sc.put(keys[0], testSession(0))
	sc.put(keys[1], testSession(1))
	sc.put(keys[2], testSession(2)) // evicts keys[0], the least recently used
	if sc.get(keys[0]) != nil {
		t.Fatal("LRU entry survived past the shard cap")
	}
	if sc.get(keys[1]) == nil || sc.get(keys[2]) == nil {
		t.Fatal("recently used entries were evicted")
	}

	// get refreshes recency: keys[1] was just touched, so inserting
	// another key evicts keys[2].
	if sc.get(keys[1]) == nil {
		t.Fatal("keys[1] missing")
	}
	sc.put(keys[3], testSession(3))
	if sc.get(keys[2]) != nil {
		t.Fatal("LRU eviction ignored get recency")
	}
	if sc.get(keys[1]) == nil || sc.get(keys[3]) == nil {
		t.Fatal("wrong entry evicted")
	}
}

func TestSessionCacheTTL(t *testing.T) {
	now := time.Unix(1000, 0)
	sc := NewSessionCacheSized(0, time.Minute)
	sc.now = func() time.Time { return now }

	sc.put("k", testSession(1))
	now = now.Add(59 * time.Second)
	if sc.get("k") == nil {
		t.Fatal("entry expired before its TTL")
	}
	// get does not extend the TTL — savedAt is the put time.
	now = now.Add(2 * time.Second)
	if sc.get("k") != nil {
		t.Fatal("entry survived past its TTL")
	}
	if sc.Size() != 0 {
		t.Fatalf("expired entry still counted: Size=%d", sc.Size())
	}
	// A fresh put under the same key restarts the clock.
	sc.put("k", testSession(2))
	if sc.get("k") == nil {
		t.Fatal("re-put entry missing")
	}
}

func TestSessionCacheEvictionMetric(t *testing.T) {
	obs.Default.SetEnabled(true)
	defer obs.Default.SetEnabled(false)
	before := mSessionEvictions.Value()

	sc := NewSessionCacheSized(sessionShards, 0) // per-shard depth 1
	keys := sameShardKeys(sc, 3)
	sc.put(keys[0], testSession(0))
	sc.put(keys[1], testSession(1)) // LRU-evicts keys[0]

	ttl := NewSessionCacheSized(0, time.Millisecond)
	now := time.Unix(0, 0)
	ttl.now = func() time.Time { return now }
	ttl.put("t", testSession(2))
	now = now.Add(time.Second)
	ttl.get("t") // TTL-evicts

	if got := mSessionEvictions.Value() - before; got != 2 {
		t.Fatalf("eviction counter moved by %d, want 2", got)
	}
}

func TestSessionCacheConcurrent(t *testing.T) {
	sc := NewSessionCacheSized(256, 50*time.Millisecond)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("conn-%d", (g*31+i)%97)
				if i%3 == 0 {
					sc.put(k, testSession(byte(i)))
				} else {
					sc.get(k)
				}
			}
		}(g)
	}
	wg.Wait()
	if sc.Size() > 256+sessionShards {
		t.Fatalf("cache overshot its cap: %d", sc.Size())
	}
}

// TestSessionCacheResumptionSemantics: the sharded cache still drives the
// abbreviated handshake end to end, including a Size that tracks both
// sides' entries.
func TestSessionCacheResumptionSemantics(t *testing.T) {
	clientCache := NewSessionCacheSized(1024, time.Hour)
	serverCache := NewSessionCacheSized(1024, time.Hour)
	run := func() *Conn {
		scfg := serverConfig(t)
		scfg.SessionCache = serverCache
		ccfg := clientConfig(t)
		ccfg.SessionCache = clientCache
		c, _, _ := handshakePair(t, ccfg, scfg)
		return c
	}
	if c := run(); c.State().Resumed {
		t.Fatal("first handshake resumed")
	}
	if clientCache.Size() != 1 || serverCache.Size() != 1 {
		t.Fatalf("cache sizes after full handshake: client=%d server=%d, want 1/1",
			clientCache.Size(), serverCache.Size())
	}
	if c := run(); !c.State().Resumed {
		t.Fatal("second handshake did not resume")
	}
}

// TestDefaultSessionCacheBounded: the default cache stays within
// DefaultSessionCacheEntries across 10 000 full handshakes' worth of
// server entries (stored under "server:"+session ID, as the server's
// full handshake stores them), while a session resumed every third
// handshake is never evicted, and every eviction is counted.
func TestDefaultSessionCacheBounded(t *testing.T) {
	obs.Default.SetEnabled(true)
	defer obs.Default.SetEnabled(false)
	before := mSessionEvictions.Value()

	sc := NewSessionCache()
	const hot = "server:resumed-every-third"
	sc.put(hot, testSession(0xaa))
	for i := 0; i < 10000; i++ {
		sc.put(fmt.Sprintf("server:%016x", uint64(i)*0x9e3779b97f4a7c15), testSession(byte(i)))
		if i%3 == 2 && sc.get(hot) == nil {
			t.Fatalf("resumed session evicted after %d full handshakes", i+1)
		}
	}
	size := sc.Size()
	if size > DefaultSessionCacheEntries {
		t.Fatalf("Size = %d after 10000 full handshakes, cap %d", size, DefaultSessionCacheEntries)
	}
	if got, want := mSessionEvictions.Value()-before, int64(10001-size); got != want {
		t.Fatalf("wtls.session_evictions rose by %d, want %d", got, want)
	}
	if unbounded := NewSessionCacheSized(0, 0); unbounded.shardCap() != 0 {
		t.Fatal("NewSessionCacheSized(0, 0) is not unbounded")
	}
}
