package client

import (
	"fmt"
	"sync"

	"aurora/internal/core"
	"aurora/internal/dfs/proto"
	"aurora/internal/metrics"
	"aurora/internal/par"
)

// Router is the shard-aware routing layer over a Client: it learns the
// namenode's block-map shard count from ClusterInfo and keeps a
// location cache grouped by shard. The grouping is what makes
// invalidation cheap and precise: each shard's optimizer period migrates
// replicas of that shard's blocks only, so a failed read of one block is
// evidence against every cached location in the same shard — and none in
// the others. Unsharded namenodes (shard count 1) degrade to a whole-
// cache invalidation, which is exactly the right behaviour there.
//
// A Router is safe for concurrent use.
type Router struct {
	c *Client

	mu sync.Mutex
	// shards is the namenode's partitioning; 0 until first discovered.
	shards int
	// cache maps path -> the file's block locations as last fetched.
	cache map[string][]proto.BlockLocation
	// shardPaths[s] is the set of cached paths owning at least one block
	// in shard s — the invalidation index.
	shardPaths []map[string]struct{}
}

// NewRouter wraps the client. The shard count is discovered lazily on
// first use.
func NewRouter(c *Client) *Router {
	return &Router{c: c, cache: make(map[string][]proto.BlockLocation)}
}

// Shards reports the namenode's shard count, fetching it once via
// ClusterInfo (old namenodes that do not report one count as 1).
func (r *Router) Shards() (int, error) {
	r.mu.Lock()
	if r.shards > 0 {
		n := r.shards
		r.mu.Unlock()
		return n, nil
	}
	r.mu.Unlock()
	resp, err := r.c.callNN("cluster_info", &proto.Message{Type: proto.MsgClusterInfo})
	if err != nil {
		return 0, fmt.Errorf("client: discover shards: %w", err)
	}
	n := resp.Shards
	if n < 1 {
		n = 1
	}
	r.mu.Lock()
	if r.shards == 0 {
		r.shards = n
		r.shardPaths = make([]map[string]struct{}, n)
		for i := range r.shardPaths {
			r.shardPaths[i] = make(map[string]struct{})
		}
	}
	n = r.shards
	r.mu.Unlock()
	return n, nil
}

// ShardOf reports which namenode shard owns block b — the same hash
// routing the namenode applies.
func (r *Router) ShardOf(b proto.BlockID) (int, error) {
	n, err := r.Shards()
	if err != nil {
		return 0, err
	}
	return core.ShardOf(core.BlockID(b), n), nil
}

// Locations returns the file's block locations, from the cache when
// present.
func (r *Router) Locations(path string) ([]proto.BlockLocation, error) {
	r.mu.Lock()
	if locs, ok := r.cache[path]; ok {
		r.mu.Unlock()
		metrics.Default.Counter("dfs.router.cache_hits").Inc()
		return locs, nil
	}
	r.mu.Unlock()
	return r.fetch(path)
}

// fetch refreshes one path's locations from the namenode and indexes
// them by shard.
func (r *Router) fetch(path string) ([]proto.BlockLocation, error) {
	shards, err := r.Shards()
	if err != nil {
		return nil, err
	}
	locs, err := r.c.Locations(path)
	if err != nil {
		return nil, err
	}
	metrics.Default.Counter("dfs.router.cache_fills").Inc()
	r.mu.Lock()
	r.cache[path] = locs
	for _, loc := range locs {
		s := core.ShardOf(core.BlockID(loc.Block), shards)
		r.shardPaths[s][path] = struct{}{}
	}
	r.mu.Unlock()
	return locs, nil
}

// InvalidateShard drops every cached location owned by shard s: after
// that shard's optimizer period (or a fault) moved replicas, all its
// cached addresses are suspect at once.
func (r *Router) InvalidateShard(s int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if s < 0 || s >= len(r.shardPaths) {
		return
	}
	for path := range r.shardPaths[s] {
		delete(r.cache, path)
		// The path may also be indexed under other shards; leave those
		// entries — they are re-pointed on the next fetch, and a stale
		// index entry only costs one redundant delete later.
	}
	r.shardPaths[s] = make(map[string]struct{})
	metrics.Default.Counter("dfs.router.shard_invalidations").Inc()
}

// Invalidate drops one path from the cache (e.g. after Delete or
// SetReplication).
func (r *Router) Invalidate(path string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.cache, path)
}

// Read fetches the whole file through the cache. A replica failure
// invalidates the block's entire shard (its placement is stale wholesale)
// before falling back to the client's refetch-and-retry read path.
func (r *Router) Read(path string) ([]byte, error) {
	locs, err := r.Locations(path)
	if err != nil {
		return nil, err
	}
	out, slots, err := fileBuffer(locs)
	if err != nil {
		return nil, fmt.Errorf("client: read %s: %w", path, err)
	}
	for i := range locs {
		if _, err := r.c.readBlockOrdered(locs[i], r.c.rng.perm(len(locs[i].Addresses)), slots[i]); err == nil {
			continue
		}
		if s, serr := r.ShardOf(locs[i].Block); serr == nil {
			r.InvalidateShard(s)
		}
		fresh, ferr := r.fetch(path)
		if ferr != nil {
			return nil, fmt.Errorf("client: refetch %s after stale read: %w", path, ferr)
		}
		if i >= len(fresh) {
			return nil, fmt.Errorf("client: read %s block %d: file shrank under the cache", path, i)
		}
		locs = fresh
		if err := r.c.readBlockFresh(path, i, locs[i], nil, slots[i]); err != nil {
			return nil, fmt.Errorf("client: read %s block %d: %w", path, locs[i].Block, err)
		}
	}
	return out, nil
}

// Prefetch warms the location cache for many paths with one bounded
// fan-out over the worker pool — the bulk-read pattern (a job opening
// its input files) that would otherwise serialize namenode round trips.
func (r *Router) Prefetch(paths []string) error {
	if len(paths) == 0 {
		return nil
	}
	errs := make([]error, len(paths))
	par.ForEach(len(paths), 0, func(i int) {
		_, errs[i] = r.fetch(paths[i])
	})
	return par.FirstError(errs)
}
