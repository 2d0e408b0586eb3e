// Package cluster implements the distributed compile tier in front of
// the diffrad fleet: a consistent-hash ring over backend nodes, a
// singleflight group that collapses identical in-flight compiles, and
// an HTTP router that combines them with failover and hedged batch
// requests.
//
// The design goal is cache locality without coordination: every router
// maps the same content-addressed cache key (service.CacheKey) to the
// same backend, so each node's two-level cache only ever sees its own
// shard of the keyspace. Ring membership is static per Router instance;
// rebuilding the ring with one node removed only remaps the keys that
// node owned (consistent hashing's defining property, pinned by tests).
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// DefaultVnodes is the per-node virtual point count, and the one every
// Router uses: ownership is a pure function of membership only while
// all routers place their nodes at the same count. 128 points keeps
// the ring small (a few KiB for a handful of nodes) while bounding the
// expected load imbalance to a few percent.
const DefaultVnodes = 128

// Ring is an immutable consistent-hash ring: nodes are placed on a
// 64-bit circle at vnodes pseudo-random points each (sha256 of
// "node#i"), and a key is owned by the first point clockwise from the
// key's hash. Immutability makes concurrent lookups lock-free;
// membership changes build a new Ring.
type Ring struct {
	points []ringPoint // sorted by hash
	nodes  []string    // distinct node names, input order
}

type ringPoint struct {
	hash uint64
	node string
}

// NewRing builds a ring over the given nodes with vnodes virtual
// points per node (vnodes <= 0 uses DefaultVnodes). Duplicate node
// names are collapsed. An empty node list yields a ring whose lookups
// return no owners.
func NewRing(vnodes int, nodes ...string) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	seen := make(map[string]bool, len(nodes))
	r := &Ring{}
	for _, n := range nodes {
		if n == "" || seen[n] {
			continue
		}
		seen[n] = true
		r.nodes = append(r.nodes, n)
	}
	r.points = make([]ringPoint, 0, len(r.nodes)*vnodes)
	for _, n := range r.nodes {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{hash: pointHash(n, i), node: n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		// Tie-break on node name so the ring is deterministic even in
		// the (astronomically unlikely) event of a point collision.
		return a.node < b.node
	})
	return r
}

// pointHash places virtual point i of a node on the circle.
func pointHash(node string, i int) uint64 {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%s#%d", node, i)))
	return binary.BigEndian.Uint64(sum[:8])
}

// keyHash maps a cache key onto the circle. Uses a different domain
// ("key:" prefix) than pointHash so node names can never alias keys.
func keyHash(key string) uint64 {
	h := sha256.New()
	h.Write([]byte("key:"))
	h.Write([]byte(key))
	var sum [sha256.Size]byte
	return binary.BigEndian.Uint64(h.Sum(sum[:0])[:8])
}

// Nodes returns the distinct member names in input order.
func (r *Ring) Nodes() []string {
	out := make([]string, len(r.nodes))
	copy(out, r.nodes)
	return out
}

// Owner returns the node owning key, or "" on an empty ring.
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	return r.points[r.search(keyHash(key))].node
}

// Successors returns up to n distinct nodes for key in preference
// order: the owner first, then the next distinct nodes clockwise.
// This is the failover / hedging order — every router derives the
// same list, so retries also concentrate on the same fallback node.
func (r *Ring) Successors(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i, start := 0, r.search(keyHash(key)); i < len(r.points) && len(out) < n; i++ {
		node := r.points[(start+i)%len(r.points)].node
		if !seen[node] {
			seen[node] = true
			out = append(out, node)
		}
	}
	return out
}

// search finds the index of the first point at or clockwise of h.
func (r *Ring) search(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		return 0 // wrap past the top of the circle
	}
	return i
}
