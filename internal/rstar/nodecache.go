package rstar

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// DefaultNodeCacheSize is the decoded-node cache capacity used when the
// caller does not choose one. At the paper's fan-out of 50, 1024 nodes
// cover the full directory of a multi-million point tree, so steady-state
// queries read only leaf pages.
const DefaultNodeCacheSize = 1024

// maxNodeCacheShards is the most shards a cache spreads its lock
// traffic over, and nodesPerShard the fewest nodes a shard of a
// many-shard cache holds: a small cache in many shards is many tiny
// LRUs, each evicting a node the walk wants next. Node IDs are page
// IDs, assigned sequentially, so id mod shards is uniform.
const (
	maxNodeCacheShards = 8
	nodesPerShard      = 64
)

// nodeCache is a sharded LRU of decoded nodes keyed by NodeID, the one
// cache of a paged tree: a hit costs no page read and no decodeNode, a
// miss reads the page from the file.
//
// Cached *Node values are shared between queries and must be treated as
// read-only — the same contract Node already documents. Tree mutations
// (which do modify nodes obtained from Get, then Put them) are exclusive
// with queries per the Tree concurrency contract, and Put/Free drop the
// mutated node's entry, so readers never observe a node mid-mutation.
type nodeCache struct {
	// shards is a power of two in number, at most maxNodeCacheShards.
	shards []nodeCacheShard
	// evictions counts nodes dropped to make room.
	evictions atomic.Uint64
}

type nodeCacheShard struct {
	mu      sync.Mutex
	cap     int
	entries map[NodeID]*list.Element
	order   *list.List // front = most recently used; values are *Node
}

// newNodeCache returns a cache holding about capacity nodes in total,
// or nil when capacity <= 0 (callers treat a nil cache as a miss). It
// has one shard per nodesPerShard nodes, rounded up to a power of two
// and capped at maxNodeCacheShards.
func newNodeCache(capacity int) *nodeCache {
	if capacity <= 0 {
		return nil
	}
	n := 1
	for n < maxNodeCacheShards && n*nodesPerShard < capacity {
		n *= 2
	}
	c := &nodeCache{shards: make([]nodeCacheShard, n)}
	for i := range c.shards {
		per := capacity / n
		if i < capacity%n {
			per++
		}
		if per < 1 {
			per = 1
		}
		c.shards[i] = nodeCacheShard{
			cap:     per,
			entries: make(map[NodeID]*list.Element, per),
			order:   list.New(),
		}
	}
	return c
}

func (c *nodeCache) shard(id NodeID) *nodeCacheShard {
	return &c.shards[uint32(id)&uint32(len(c.shards)-1)]
}

func (c *nodeCache) get(id NodeID) *Node {
	if c == nil {
		return nil
	}
	sh := c.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	el, ok := sh.entries[id]
	if !ok {
		return nil
	}
	sh.order.MoveToFront(el)
	return el.Value.(*Node)
}

// insertIfVersion installs n decoded at store version v, but only if the
// store is still at that version — the check runs under the shard lock,
// so a Put/Free that bumped the version after the caller's page read can
// never be shadowed by the stale decode.
func (c *nodeCache) insertIfVersion(n *Node, v uint64, current func() uint64) {
	if c == nil {
		return
	}
	sh := c.shard(n.ID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if current() != v {
		return
	}
	putLocked(sh, n)
	for sh.order.Len() > sh.cap {
		back := sh.order.Back()
		delete(sh.entries, back.Value.(*Node).ID)
		sh.order.Remove(back)
		c.evictions.Add(1)
	}
}

// put installs n, whose page the caller has just written and versioned,
// without evicting: a build's directory stays whole, beyond capacity if
// it must, until the IWP build has read it back, and the next decode
// inserted into the shard trims it to capacity.
func (c *nodeCache) put(n *Node) {
	if c == nil {
		return
	}
	sh := c.shard(n.ID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	putLocked(sh, n)
}

// putLocked installs n in sh as its most recent entry. Caller holds
// sh.mu.
func putLocked(sh *nodeCacheShard, n *Node) {
	if el, ok := sh.entries[n.ID]; ok {
		el.Value = n
		sh.order.MoveToFront(el)
		return
	}
	sh.entries[n.ID] = sh.order.PushFront(n)
}

// drop removes id from the cache; called by Put and Free after the
// version bump so in-flight decodes of the old bytes cannot re-enter.
func (c *nodeCache) drop(id NodeID) {
	if c == nil {
		return
	}
	sh := c.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.entries[id]; ok {
		sh.order.Remove(el)
		delete(sh.entries, id)
	}
}

// len returns the number of cached nodes across all shards.
func (c *nodeCache) len() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += sh.order.Len()
		sh.mu.Unlock()
	}
	return n
}
