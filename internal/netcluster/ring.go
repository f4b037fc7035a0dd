// Package netcluster puts the cluster package's scatter-gather Router
// behind the wire: shard servers host one partition each behind the HTTP API (plus an
// internal encoded-search endpoint, so the coordinator embeds a query once
// and fans raw vectors out), and a coordinator owns a consistent-hash ring
// of R-way replica sets, routing reads and writes to sets, failing over
// across replicas with exponential backoff and jitter, and degrading
// partially when a whole replica set is unreachable.
//
// The coordinator runs the cluster Router — each replica set is presented
// to it as one logical Shard — so the networked deployment gets the
// Router's bit-identical ExS merge, cost aggregation and span-tree
// tracing. What this
// package adds is everything the wire makes necessary: an HTTP transport
// (with pluggable fault injection for tests and benches), remote-error
// classification, replica failover, and traceparent propagation so a
// coordinator trace and the shard-side traces share one trace ID.
package netcluster

import (
	"fmt"
	"sort"
)

// DefaultVnodes is the virtual-node count per ring member: enough points
// that a member's key range is spread over many small arcs (smoothing
// placement skew to a few percent), small enough that the ring stays a
// sub-kilobyte sorted array.
const DefaultVnodes = 64

// Ring is a consistent-hash ring over n replica sets. Members are
// identified by their index; each contributes Vnodes points placed by
// hashing "set-<i>/<v>". A key's owner is the first point clockwise from
// the key's hash. The construction is deterministic, so a shard server
// and the coordinator — built independently from the same (sets, vnodes)
// pair — agree on every relation's placement by construction, with no
// placement state to distribute.
type Ring struct {
	points []ringPoint
	sets   int
	vnodes int
}

type ringPoint struct {
	hash uint64
	set  int
}

// NewRing places sets replica sets on the ring with vnodes virtual nodes
// each (0 means DefaultVnodes).
func NewRing(sets, vnodes int) (*Ring, error) {
	if sets < 1 {
		return nil, fmt.Errorf("netcluster: ring needs at least one set, got %d", sets)
	}
	if vnodes == 0 {
		vnodes = DefaultVnodes
	}
	if vnodes < 1 {
		return nil, fmt.Errorf("netcluster: invalid vnode count %d", vnodes)
	}
	r := &Ring{points: make([]ringPoint, 0, sets*vnodes), sets: sets, vnodes: vnodes}
	for s := 0; s < sets; s++ {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash: hash64(fmt.Sprintf("set-%d/%d", s, v)),
				set:  s,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Equal hashes (astronomically unlikely, but the ring must still be
		// a total order) break ties by set index.
		return r.points[i].set < r.points[j].set
	})
	return r, nil
}

// Sets reports the replica-set count.
func (r *Ring) Sets() int { return r.sets }

// Owner returns the replica set owning a key: the first ring point at or
// clockwise after the key's hash.
func (r *Ring) Owner(key string) int {
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: the lowest point owns the top arc
	}
	return r.points[i].set
}

// hash64 is FNV-1a over the key bytes with a 64-bit avalanche finalizer —
// stable across processes and Go versions, unlike the runtime map hash.
// The finalizer matters: raw FNV-1a disperses a trailing-byte difference
// only ~40 bits up, so sequential IDs ("rel-01998", "rel-01999") cluster
// in the high bits the ring's point ordering compares on, and whole runs
// of keys land on one arc. Mixing restores uniform placement.
func hash64(key string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
