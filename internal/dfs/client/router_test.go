package client

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"aurora/internal/core"
	"aurora/internal/dfs/proto"
)

// routerFake is a scripted namenode transport for router tests: ops are
// served from a mutable location table and every RPC is counted so
// cache behaviour is observable. Block reads go to whatever stream
// fakes the location table names.
type routerFake struct {
	mu        sync.Mutex
	shards    int
	locs      map[string][]proto.BlockLocation
	infoCalls int
	locCalls  map[string]int
}

func newRouterFake(shards int) *routerFake {
	return &routerFake{
		shards:   shards,
		locs:     make(map[string][]proto.BlockLocation),
		locCalls: make(map[string]int),
	}
}

func (f *routerFake) call(addr string, req *proto.Message, payload []byte, timeout time.Duration) (*proto.Message, []byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	switch req.Type {
	case proto.MsgClusterInfo:
		f.infoCalls++
		return &proto.Message{Type: proto.MsgOK, Shards: f.shards}, nil, nil
	case proto.MsgGetLocations:
		f.locCalls[req.Path]++
		locs, ok := f.locs[req.Path]
		if !ok {
			// The real transport surfaces MsgError responses as
			// *proto.RemoteError; mimic that so retries stay permanent.
			return nil, nil, &proto.RemoteError{Msg: "no such file"}
		}
		return &proto.Message{Type: proto.MsgOK, Locations: append([]proto.BlockLocation(nil), locs...)}, nil, nil
	default:
		return nil, nil, &proto.RemoteError{Msg: "unexpected message"}
	}
}

func (f *routerFake) locationCalls(path string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.locCalls[path]
}

func newTestRouter(f *routerFake) *Router {
	return NewRouter(New("unused:0", WithCall(f.call), WithSeed(1)))
}

// blockInShard finds the n-th distinct block ID the hash router assigns
// to shard s (n counts from 0).
func blockInShard(t *testing.T, s, shards, n int) proto.BlockID {
	t.Helper()
	for id := proto.BlockID(1); id < 1<<16; id++ {
		if core.ShardOf(core.BlockID(id), shards) == s {
			if n == 0 {
				return id
			}
			n--
		}
	}
	t.Fatalf("no block found for shard %d/%d", s, shards)
	return 0
}

func TestRouterDiscoversShardsOnce(t *testing.T) {
	f := newRouterFake(4)
	r := newTestRouter(f)
	for i := 0; i < 3; i++ {
		n, err := r.Shards()
		if err != nil {
			t.Fatalf("Shards: %v", err)
		}
		if n != 4 {
			t.Fatalf("Shards = %d, want 4", n)
		}
	}
	if f.infoCalls != 1 {
		t.Errorf("cluster_info called %d times, want 1 (cached)", f.infoCalls)
	}
}

func TestRouterTreatsUnshardedNamenodeAsOneShard(t *testing.T) {
	f := newRouterFake(0) // old namenode: no Shards field on the wire
	r := newTestRouter(f)
	n, err := r.Shards()
	if err != nil {
		t.Fatalf("Shards: %v", err)
	}
	if n != 1 {
		t.Errorf("Shards = %d, want 1 for an unsharded namenode", n)
	}
}

func TestRouterShardInvalidationIsScoped(t *testing.T) {
	const shards = 4
	f := newRouterFake(shards)
	a := blockInShard(t, 0, shards, 0)
	b := blockInShard(t, 1, shards, 0)
	f.locs["/a"] = []proto.BlockLocation{{Block: a, Addresses: []string{"dn0"}}}
	f.locs["/b"] = []proto.BlockLocation{{Block: b, Addresses: []string{"dn1"}}}
	r := newTestRouter(f)

	for _, path := range []string{"/a", "/b", "/a", "/b"} {
		if _, err := r.Locations(path); err != nil {
			t.Fatalf("Locations %s: %v", path, err)
		}
	}
	if f.locationCalls("/a") != 1 || f.locationCalls("/b") != 1 {
		t.Fatalf("cache miss on repeat lookup: /a=%d /b=%d, want 1 each",
			f.locationCalls("/a"), f.locationCalls("/b"))
	}

	// Dropping shard 0 must evict /a but leave /b (shard 1) cached.
	r.InvalidateShard(0)
	if _, err := r.Locations("/a"); err != nil {
		t.Fatalf("Locations /a: %v", err)
	}
	if _, err := r.Locations("/b"); err != nil {
		t.Fatalf("Locations /b: %v", err)
	}
	if got := f.locationCalls("/a"); got != 2 {
		t.Errorf("/a fetched %d times, want 2 (invalidated)", got)
	}
	if got := f.locationCalls("/b"); got != 1 {
		t.Errorf("/b fetched %d times, want 1 (other shard untouched)", got)
	}
}

func TestRouterReadRecoversFromStaleShard(t *testing.T) {
	const shards = 4
	f := newRouterFake(shards)
	a := blockInShard(t, 2, shards, 0)
	sibling := blockInShard(t, 2, shards, 1)
	other := blockInShard(t, 3, shards, 0)

	good := []byte("replicated payload")
	fresh := startStreamFake(t, serveChunks(good, 0))
	const stale = "127.0.0.1:1" // nothing listens: the replica moved away
	f.locs["/hot"] = []proto.BlockLocation{{Block: a, Length: len(good), Addresses: []string{stale}}}
	f.locs["/same-shard"] = []proto.BlockLocation{{Block: sibling, Addresses: []string{"dn0"}}}
	f.locs["/other-shard"] = []proto.BlockLocation{{Block: other, Addresses: []string{"dn1"}}}
	r := newTestRouter(f)

	// Warm all three paths, then move /hot's replica: the cached location
	// now points at a dead node, as after an optimizer migration.
	for _, path := range []string{"/hot", "/same-shard", "/other-shard"} {
		if _, err := r.Locations(path); err != nil {
			t.Fatalf("warm %s: %v", path, err)
		}
	}
	f.mu.Lock()
	f.locs["/hot"] = []proto.BlockLocation{{Block: a, Length: len(good), Addresses: []string{fresh}}}
	f.mu.Unlock()

	got, err := r.Read("/hot")
	if err != nil {
		t.Fatalf("Read through stale cache: %v", err)
	}
	if !bytes.Equal(got, good) {
		t.Fatalf("Read = %q, want %q", got, good)
	}

	// The failure must have invalidated exactly the block's shard: the
	// sibling path refetches, the other-shard path stays cached.
	if _, err := r.Locations("/same-shard"); err != nil {
		t.Fatalf("Locations /same-shard: %v", err)
	}
	if _, err := r.Locations("/other-shard"); err != nil {
		t.Fatalf("Locations /other-shard: %v", err)
	}
	if got := f.locationCalls("/same-shard"); got != 2 {
		t.Errorf("/same-shard fetched %d times, want 2 (same shard as failed block)", got)
	}
	if got := f.locationCalls("/other-shard"); got != 1 {
		t.Errorf("/other-shard fetched %d times, want 1 (different shard)", got)
	}
}

func TestRouterPrefetchWarmsCache(t *testing.T) {
	f := newRouterFake(8)
	paths := []string{"/p0", "/p1", "/p2", "/p3", "/p4", "/p5"}
	for i, p := range paths {
		f.locs[p] = []proto.BlockLocation{{Block: proto.BlockID(i + 1), Addresses: []string{"dn0"}}}
	}
	r := newTestRouter(f)
	if err := r.Prefetch(paths); err != nil {
		t.Fatalf("Prefetch: %v", err)
	}
	for _, p := range paths {
		if _, err := r.Locations(p); err != nil {
			t.Fatalf("Locations %s: %v", p, err)
		}
		if got := f.locationCalls(p); got != 1 {
			t.Errorf("%s fetched %d times, want 1 (prefetched)", p, got)
		}
	}
	if err := r.Prefetch([]string{"/p0", "/missing"}); err == nil {
		t.Error("Prefetch of a missing path reported no error")
	}
}
