// Package ring places sensor topics onto the gateways of a sharded
// site by consistent hashing. The paper assumes one event gateway per
// site; past a few thousand sensors one gateway's publish path and wire
// fan-out become the bottleneck, so a site runs N gateways and every
// sensor (bus topic) is owned by exactly one of them. Placement must be
// deterministic — every sensor manager, router, and consumer that knows
// the ring membership computes the same owner with no coordination —
// and stable: adding or removing one gateway moves only ~1/N of the
// topics (the classic consistent-hashing property), which is what makes
// later rebalancing and replication PRs incremental rather than
// stop-the-world.
//
// A Ring is immutable; With/Without derive new rings, so membership
// changes are snapshot swaps on the caller's side.
package ring

import (
	"slices"
	"sort"
)

// DefaultReplicas is the virtual-node count per gateway when Options
// leave it zero. 128 points per node keeps the load spread within a few
// percent of even for small sites while the ring stays tiny (N×128
// 16-byte points).
const DefaultReplicas = 128

// point is one virtual node: a position on the hash circle owned by a
// gateway.
type point struct {
	hash uint64
	node int // index into nodes
}

// Ring is an immutable consistent-hash ring over gateway addresses. It
// is safe for concurrent use (all methods are reads).
type Ring struct {
	replicas int
	nodes    []string // sorted, unique
	points   []point  // sorted by (hash, node)
}

// New builds a ring over the given gateway addresses with the given
// virtual-node count per gateway (<= 0 selects DefaultReplicas).
// Duplicate addresses collapse; order does not matter — two rings built
// from permutations of the same membership are identical.
func New(nodes []string, replicas int) *Ring {
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	uniq := make([]string, 0, len(nodes))
	seen := make(map[string]struct{}, len(nodes))
	for _, n := range nodes {
		if _, dup := seen[n]; dup || n == "" {
			continue
		}
		seen[n] = struct{}{}
		uniq = append(uniq, n)
	}
	sort.Strings(uniq)
	r := &Ring{replicas: replicas, nodes: uniq, points: make([]point, 0, len(uniq)*replicas)}
	var buf []byte
	for i, n := range uniq {
		for v := 0; v < replicas; v++ {
			buf = append(buf[:0], n...)
			buf = append(buf, '#')
			buf = appendUint(buf, uint64(v))
			r.points = append(r.points, point{hash: hash64(buf), node: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].node < r.points[b].node // ties: deterministic
	})
	return r
}

// Nodes returns the ring membership, sorted.
func (r *Ring) Nodes() []string { return append([]string(nil), r.nodes...) }

// Len returns the number of gateways on the ring.
func (r *Ring) Len() int { return len(r.nodes) }

// Replicas returns the virtual-node count per gateway.
func (r *Ring) Replicas() int { return r.replicas }

// Contains reports whether addr is a ring member.
func (r *Ring) Contains(addr string) bool {
	i := sort.SearchStrings(r.nodes, addr)
	return i < len(r.nodes) && r.nodes[i] == addr
}

// Owner returns the gateway owning topic: the first virtual node at or
// after the topic's hash, wrapping at the top of the circle. An empty
// ring owns nothing ("").
func (r *Ring) Owner(topic string) string {
	if len(r.points) == 0 {
		return ""
	}
	return r.nodes[r.points[r.locate(topic)].node]
}

// Owners returns up to n distinct gateways for topic in preference
// order: the owner first, then the successor gateways around the circle
// — the replica set a future replication PR places copies on.
func (r *Ring) Owners(topic string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	return r.AppendOwners(make([]string, 0, min(n, len(r.nodes))), topic, n)
}

// AppendOwners appends Owners(topic, n) to dst and returns the extended
// slice: with room in dst, it allocates nothing — the form a per-batch
// caller (the replication forwarder) uses with a stack array.
func (r *Ring) AppendOwners(dst []string, topic string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return dst
	}
	n = min(n, len(r.nodes))
	start := len(dst)
	for i, at := 0, r.locate(topic); len(dst)-start < n && i < len(r.points); i++ {
		node := r.nodes[r.points[(at+i)%len(r.points)].node]
		if !slices.Contains(dst[start:], node) { // nodes are unique: a name is a node
			dst = append(dst, node)
		}
	}
	return dst
}

// With derives a ring with addr added (no-op if already a member).
func (r *Ring) With(addr string) *Ring {
	return New(append(r.Nodes(), addr), r.replicas)
}

// Without derives a ring with addr removed (no-op if not a member).
func (r *Ring) Without(addr string) *Ring {
	nodes := make([]string, 0, len(r.nodes))
	for _, n := range r.nodes {
		if n != addr {
			nodes = append(nodes, n)
		}
	}
	return New(nodes, r.replicas)
}

// locate returns the index of the first point at or after topic's hash,
// wrapping to 0 past the last point.
func (r *Ring) locate(topic string) int {
	h := hashString(topic)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		return 0
	}
	return i
}

// hash64 is FNV-1a (64-bit) — the same family the bus uses for topic
// sharding, chosen for determinism across processes rather than speed;
// Owner is not on the per-record hot path (routers cache placements).
func hash64(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// appendUint appends the decimal rendering of v (strconv-free to keep
// the package dependency-light).
func appendUint(dst []byte, v uint64) []byte {
	if v == 0 {
		return append(dst, '0')
	}
	var tmp [20]byte
	i := len(tmp)
	for v > 0 {
		i--
		tmp[i] = byte('0' + v%10)
		v /= 10
	}
	return append(dst, tmp[i:]...)
}
