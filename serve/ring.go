package serve

// Consistent-hash routing for the fleet: jobs land on executor fault
// domains by their idempotent job ID, so duplicate submissions dedup
// onto the same worker, a worker joining or leaving moves only ~1/N of
// the fingerprints, and two coordinator replicas configured with the
// same worker set route identically — the ring is canonical in the
// executor names alone, independent of registration order.

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// ringReplicas is the virtual-node count per executor: enough that the
// load split between domains stays within a few percent of even.
const ringReplicas = 128

// ringPoint is one virtual node: an executor name at a hash position.
type ringPoint struct {
	hash uint64
	name string
}

// ring is the consistent-hash ring over executor names.
type ring struct {
	points []ringPoint
	names  []string // distinct executor names, sorted
}

// hashKey hashes a routing key (a job ID) or a virtual-node label onto
// the ring. The hash must mix every input byte into the high bits:
// worker addresses differ only in their port digits, and a hash that
// does not (FNV-1a) clusters each node's virtual nodes and skews the
// split.
func hashKey(key string) uint64 {
	sum := sha256.Sum256([]byte(key))
	return binary.BigEndian.Uint64(sum[:8])
}

// newRing builds the ring for a set of executor names. The ring is a
// pure function of the name set: duplicates collapse, order is
// irrelevant, and the same names always produce the same ring — the
// property that lets any coordinator replica route a spec's cells
// identically.
func newRing(names []string) *ring {
	seen := map[string]bool{}
	r := &ring{}
	for _, name := range names {
		if name == "" || seen[name] {
			continue
		}
		seen[name] = true
		r.names = append(r.names, name)
	}
	sort.Strings(r.names)
	r.points = make([]ringPoint, 0, len(r.names)*ringReplicas)
	for _, name := range r.names {
		for i := 0; i < ringReplicas; i++ {
			r.points = append(r.points, ringPoint{hash: hashKey(fmt.Sprintf("%s#%d", name, i)), name: name})
		}
	}
	sort.Slice(r.points, func(i, k int) bool {
		if r.points[i].hash != r.points[k].hash {
			return r.points[i].hash < r.points[k].hash
		}
		return r.points[i].name < r.points[k].name
	})
	return r
}

// order returns the distinct executor names in ring-walk order starting
// at the key's successor: the first entry is the key's home, the rest
// are the fallback order a dispatch walks when domains are unhealthy or
// just lost this job's lease. Every name appears exactly once.
func (r *ring) order(key string) []string {
	if len(r.points) == 0 {
		return nil
	}
	h := hashKey(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, len(r.names))
	seen := map[string]bool{}
	for i := 0; i < len(r.points) && len(out) < len(r.names); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.name] {
			seen[p.name] = true
			out = append(out, p.name)
		}
	}
	return out
}

// pick returns the key's home executor name.
func (r *ring) pick(key string) string {
	o := r.order(key)
	if len(o) == 0 {
		return ""
	}
	return o[0]
}
