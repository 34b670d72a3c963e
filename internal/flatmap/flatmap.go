// Package flatmap provides the open-addressed hash tables the simulator
// hot path runs on: a generic uint64-keyed map with inline value
// storage (directory entries, page homes, page-cache frames) and a
// uint64→uint32 counter table (the R-NUMA relocation counters). Both
// support deletion via backward-shift compaction, so probe chains never
// accumulate tombstones.
//
// Both tables use power-of-two capacities, Fibonacci hashing and linear
// probing, and store key+1 so the zero word marks an empty slot. Every
// key the simulator uses — block numbers (≤ 2^42 under the 48-bit
// address space), page numbers (≤ 2^36) and page<<8|cluster counter
// keys (≤ 2^44) — is far below 2^64-1, so the +1 shift cannot wrap.
//
// Values live inline in the slot array. That is the point: replacing
// map[Block]*entry with Map[entry] removes the per-miss pointer
// allocation and the runtime map-assist calls from the Apply hot path.
// The returned *V pointers alias the slot array and are invalidated by
// the next Put (which may grow the table); callers use them immediately
// and never retain them across inserts.
package flatmap

import "math/bits"

// fib is the 64-bit Fibonacci hashing multiplier (2^64 / φ).
const fib = 0x9e3779b97f4a7c15

// minCap is the smallest slot-array size; small enough that idle tables
// (e.g. counters on a counterless system) stay cheap, large enough that
// warm tables grow only a handful of times.
const minCap = 64

// Map is an open-addressed map from uint64 keys to inline values. The
// zero value is an empty map ready for use.
type Map[V any] struct {
	keys  []uint64 // key+1; 0 marks an empty slot
	vals  []V
	live  int
	shift uint // 64 - log2(len(keys))
}

// Len returns the number of live entries.
func (m *Map[V]) Len() int { return m.live }

// Get returns a pointer to the value stored under k, or nil. The
// pointer is valid until the next Put.
func (m *Map[V]) Get(k uint64) *V {
	if m.live == 0 {
		return nil
	}
	kk := k + 1
	mask := uint64(len(m.keys) - 1)
	for i := (kk * fib) >> m.shift; ; i = (i + 1) & mask {
		switch m.keys[i] {
		case kk:
			return &m.vals[i]
		case 0:
			return nil
		}
	}
}

// Put returns a pointer to the value slot for k, inserting a zero value
// (and reporting created=true) if the key was absent. The pointer is
// valid until the next Put.
func (m *Map[V]) Put(k uint64) (v *V, created bool) {
	if 4*(m.live+1) > 3*len(m.keys) {
		m.grow()
	}
	kk := k + 1
	mask := uint64(len(m.keys) - 1)
	for i := (kk * fib) >> m.shift; ; i = (i + 1) & mask {
		switch m.keys[i] {
		case kk:
			return &m.vals[i], false
		case 0:
			m.keys[i] = kk
			m.live++
			return &m.vals[i], true
		}
	}
}

func (m *Map[V]) grow() {
	newCap := minCap
	if len(m.keys) > 0 {
		newCap = 2 * len(m.keys)
	}
	oldKeys, oldVals := m.keys, m.vals
	m.keys = make([]uint64, newCap)
	m.vals = make([]V, newCap)
	m.shift = uint(64 - bits.TrailingZeros(uint(newCap)))
	mask := uint64(newCap - 1)
	for j, kk := range oldKeys {
		if kk == 0 {
			continue
		}
		for i := (kk * fib) >> m.shift; ; i = (i + 1) & mask {
			if m.keys[i] == 0 {
				m.keys[i] = kk
				m.vals[i] = oldVals[j]
				break
			}
		}
	}
}

// Del removes k if present. Like Put, it invalidates previously
// returned value pointers (backward-shift compaction moves entries).
func (m *Map[V]) Del(k uint64) {
	if m.live == 0 {
		return
	}
	kk := k + 1
	mask := uint64(len(m.keys) - 1)
	for i := (kk * fib) >> m.shift; ; i = (i + 1) & mask {
		switch m.keys[i] {
		case kk:
			m.remove(i, mask)
			return
		case 0:
			return
		}
	}
}

// remove empties slot i and backward-shifts the probe chain behind it
// (same scheme as Counter.remove), zeroing the vacated value so inline
// values never pin garbage.
func (m *Map[V]) remove(i, mask uint64) {
	m.live--
	j := i
	for {
		j = (j + 1) & mask
		kj := m.keys[j]
		if kj == 0 {
			break
		}
		home := (kj * fib) >> m.shift
		if (j-home)&mask >= (j-i)&mask {
			m.keys[i] = kj
			m.vals[i] = m.vals[j]
			i = j
		}
	}
	var zero V
	m.keys[i] = 0
	m.vals[i] = zero
}

// Range calls fn for every live entry in unspecified order; fn
// returning false stops the walk. fn must not Put into the map.
func (m *Map[V]) Range(fn func(k uint64, v *V) bool) {
	for i, kk := range m.keys {
		if kk != 0 && !fn(kk-1, &m.vals[i]) {
			return
		}
	}
}

// Counter is an open-addressed uint64→uint32 counter table supporting
// deletion (linear probing with backward-shift removal, so probe chains
// never accumulate tombstones). A counter never stores zero: Dec
// deletes at one, matching the R-NUMA semantics where an absent
// (page, cluster) pair and a zero count are the same thing. The zero
// value is an empty table ready for use.
type Counter struct {
	keys  []uint64 // key+1; 0 marks an empty slot
	vals  []uint32
	live  int
	shift uint
}

// Len returns the number of live counters.
func (c *Counter) Len() int { return c.live }

// Get returns the counter for k (zero when absent).
func (c *Counter) Get(k uint64) uint32 {
	if c.live == 0 {
		return 0
	}
	kk := k + 1
	mask := uint64(len(c.keys) - 1)
	for i := (kk * fib) >> c.shift; ; i = (i + 1) & mask {
		switch c.keys[i] {
		case kk:
			return c.vals[i]
		case 0:
			return 0
		}
	}
}

// Incr adds one to the counter for k, inserting it at one, and returns
// the post-increment value.
func (c *Counter) Incr(k uint64) uint32 {
	return c.add(k, 1)
}

func (c *Counter) add(k uint64, d uint32) uint32 {
	p, _ := c.slot(k)
	*p += d
	return *p
}

// slot returns the value slot for k, inserting a zero-valued entry if
// absent.
func (c *Counter) slot(k uint64) (v *uint32, created bool) {
	if 4*(c.live+1) > 3*len(c.keys) {
		c.grow()
	}
	kk := k + 1
	mask := uint64(len(c.keys) - 1)
	for i := (kk * fib) >> c.shift; ; i = (i + 1) & mask {
		switch c.keys[i] {
		case kk:
			return &c.vals[i], false
		case 0:
			c.keys[i] = kk
			c.live++
			return &c.vals[i], true
		}
	}
}

func (c *Counter) grow() {
	newCap := minCap
	if len(c.keys) > 0 {
		newCap = 2 * len(c.keys)
	}
	oldKeys, oldVals := c.keys, c.vals
	c.keys = make([]uint64, newCap)
	c.vals = make([]uint32, newCap)
	c.shift = uint(64 - bits.TrailingZeros(uint(newCap)))
	mask := uint64(newCap - 1)
	for j, kk := range oldKeys {
		if kk == 0 {
			continue
		}
		for i := (kk * fib) >> c.shift; ; i = (i + 1) & mask {
			if c.keys[i] == 0 {
				c.keys[i] = kk
				c.vals[i] = oldVals[j]
				break
			}
		}
	}
}

// Dec subtracts one from the counter for k: a counter at one is
// deleted, an absent counter is left absent (never wraps below zero).
func (c *Counter) Dec(k uint64) {
	if c.live == 0 {
		return
	}
	kk := k + 1
	mask := uint64(len(c.keys) - 1)
	for i := (kk * fib) >> c.shift; ; i = (i + 1) & mask {
		switch c.keys[i] {
		case kk:
			if c.vals[i] > 1 {
				c.vals[i]--
			} else {
				c.remove(i, mask)
			}
			return
		case 0:
			return
		}
	}
}

// Del removes the counter for k if present.
func (c *Counter) Del(k uint64) {
	if c.live == 0 {
		return
	}
	kk := k + 1
	mask := uint64(len(c.keys) - 1)
	for i := (kk * fib) >> c.shift; ; i = (i + 1) & mask {
		switch c.keys[i] {
		case kk:
			c.remove(i, mask)
			return
		case 0:
			return
		}
	}
}

// remove empties slot i and backward-shifts the probe chain behind it,
// so lookups never need tombstones: every remaining key stays reachable
// from its home slot by linear probing.
func (c *Counter) remove(i, mask uint64) {
	c.live--
	j := i
	for {
		j = (j + 1) & mask
		kj := c.keys[j]
		if kj == 0 {
			break
		}
		home := (kj * fib) >> c.shift
		// kj may move into the hole at i only if its home slot lies
		// cyclically at or before i (otherwise the move would place it
		// ahead of its own probe chain).
		if (j-home)&mask >= (j-i)&mask {
			c.keys[i] = kj
			c.vals[i] = c.vals[j]
			i = j
		}
	}
	c.keys[i] = 0
	c.vals[i] = 0
}

// Range calls fn for every live counter in unspecified order; fn
// returning false stops the walk. fn must not mutate the table.
func (c *Counter) Range(fn func(k uint64, v uint32) bool) {
	for i, kk := range c.keys {
		if kk != 0 && !fn(kk-1, c.vals[i]) {
			return
		}
	}
}
