// Package cache implements the set-associative tag stores used throughout
// the simulated memory hierarchy: the per-processor caches and the SRAM /
// DRAM network caches. It is a functional model — tags, states and LRU
// order, no data — which is exactly what a trace-driven coherence study
// needs.
//
// Two indexing schemes are provided (paper §3.3/§6.1.3): the conventional
// one using the low bits of the block address, and the page-address scheme
// used by the vp/vpp/vxp victim caches, where all blocks of a page map to
// the same set.
package cache

import (
	"fmt"
	"math/bits"

	"dsmnc/memsys"
)

// State is a MESIR coherence state (paper §3.2). The R state marks the
// master copy of a clean remote block: the cache responsible for
// victimizing it to the network cache when replaced.
type State uint8

// MESIR states, plus the optional O state of the MOESI extension the
// paper evaluated (and found not worth its cost, §3.2): Owned marks a
// dirty-shared line whose holder supplies data without updating memory.
const (
	Invalid State = iota
	Shared
	Exclusive
	Modified
	RemoteMaster // R: clean remote block, replacement master
	Owned        // O: dirty-shared master (MOESI option)
)

// String returns the one-letter protocol name of the state.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	case RemoteMaster:
		return "R"
	case Owned:
		return "O"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// Valid reports whether the state holds data.
func (s State) Valid() bool { return s != Invalid }

// Dirty reports whether the state's data must be written back when the
// line leaves the cluster (Modified, or Owned under the MOESI option).
func (s State) Dirty() bool { return s == Modified || s == Owned }

// Indexing selects how a block maps to a set.
type Indexing uint8

// Indexing schemes.
const (
	// ByBlock indexes sets with the LSBs of the block address (vb).
	ByBlock Indexing = iota
	// ByPage indexes sets with the LSBs of the page address (vp), so
	// every block of a page falls in the same set and each set acts as
	// intermediate storage for blocks of a remote page (paper §3.3).
	ByPage
)

// Line is one cache frame.
type Line struct {
	Block memsys.Block // full block number doubles as the tag
	State State
	lru   uint64 // higher is more recent
}

// Config sizes a cache.
type Config struct {
	Bytes    int      // total capacity in bytes
	Ways     int      // associativity
	Indexing Indexing // set index scheme
}

// SetAssoc is a set-associative cache with true-LRU replacement.
type SetAssoc struct {
	lines    []Line // sets*ways, set-major
	ways     int
	sets     int
	setMask  uint64
	indexing Indexing
	tick     uint64

	// last memoizes the line returned by the previous successful
	// Lookup/Fill. References cluster on a block (word-level streams),
	// so most lookups re-find the line the previous one did; the memo
	// turns those into a single tag compare. It is only ever a hint: a
	// hit requires the memoized line to still hold the requested block
	// in a valid state, which re-verifies it against every possible
	// intervening eviction, invalidation or replacement. The lines
	// array never reallocates, so the pointer itself cannot dangle.
	// It starts pointing at a shared always-Invalid sentinel so the
	// check needs no nil test (keeping Lookup within the inline budget).
	last *Line
}

// noLine is the initial memo target: permanently Invalid, never written
// (the memo only ever returns lines that pass the validity check, and
// TouchLine/Fill only receive lines inside a cache's own array).
var noLine = &Line{}

// New builds a cache from cfg. A malformed configuration (non-power-of-two
// set count, zero ways) is a configuration error, reported rather than
// panicking so sweep drivers can flag the cell and move on.
func New(cfg Config) (*SetAssoc, error) {
	if cfg.Ways <= 0 {
		return nil, fmt.Errorf("cache: invalid ways %d", cfg.Ways)
	}
	blocks := cfg.Bytes / memsys.BlockBytes
	if blocks <= 0 || blocks%cfg.Ways != 0 {
		return nil, fmt.Errorf("cache: %d bytes not divisible into %d ways", cfg.Bytes, cfg.Ways)
	}
	sets := blocks / cfg.Ways
	if bits.OnesCount(uint(sets)) != 1 {
		return nil, fmt.Errorf("cache: set count %d not a power of two", sets)
	}
	return &SetAssoc{
		lines:    make([]Line, sets*cfg.Ways),
		ways:     cfg.Ways,
		sets:     sets,
		setMask:  uint64(sets - 1),
		indexing: cfg.Indexing,
		last:     noLine,
	}, nil
}

// Sets returns the number of sets.
func (c *SetAssoc) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *SetAssoc) Ways() int { return c.ways }

// Bytes returns the capacity in bytes.
func (c *SetAssoc) Bytes() int { return len(c.lines) * memsys.BlockBytes }

// SetOf returns the set index block b maps to. Indexing uses
// pseudo-physical addresses (memsys.PhysBlock): the caches of a DSM node
// are physically indexed, so page color — not virtual page number —
// decides conflicts.
func (c *SetAssoc) SetOf(b memsys.Block) int {
	if c.indexing == ByPage {
		return int(memsys.FrameOf(memsys.PageOfBlock(b)) & c.setMask)
	}
	return int(memsys.PhysBlock(b) & c.setMask)
}

func (c *SetAssoc) set(b memsys.Block) []Line {
	i := c.SetOf(b) * c.ways
	return c.lines[i : i+c.ways]
}

// Lookup returns the line holding b, or nil. It does not touch LRU state;
// use Touch for that, so that probes (snoops) don't perturb recency.
// The memo check is kept loop-free so Lookup inlines into its callers
// and the common re-reference costs three compares, not a call.
func (c *SetAssoc) Lookup(b memsys.Block) *Line {
	if ln := c.last; ln.Block == b && ln.State != Invalid {
		return ln
	}
	return c.lookupScan(b)
}

// lookupScan is the slow half of Lookup: the set scan.
func (c *SetAssoc) lookupScan(b memsys.Block) *Line {
	base := c.SetOf(b) * c.ways
	lines := c.lines[base : base+c.ways]
	for i := range lines {
		if lines[i].Block == b && lines[i].State != Invalid {
			c.last = &lines[i]
			return &lines[i]
		}
	}
	return nil
}

// Touch marks b most recently used. It is a no-op if b is absent.
func (c *SetAssoc) Touch(b memsys.Block) {
	if ln := c.Lookup(b); ln != nil {
		c.TouchLine(ln)
	}
}

// TouchLine marks a line already located by Lookup most recently used,
// skipping the second set scan Touch would pay. ln must be a pointer
// returned by this cache's Lookup.
func (c *SetAssoc) TouchLine(ln *Line) {
	c.tick++
	ln.lru = c.tick
}

// Fill inserts b with the given state, replacing the LRU line of the set
// if no way is free. It returns the victim line (State Invalid if a free
// way was used). Fill marks the new line most recently used. Filling a
// block that is already present just updates its state.
func (c *SetAssoc) Fill(b memsys.Block, st State) (victim Line) {
	c.tick++
	set := c.set(b)
	var free, lru *Line
	for i := range set {
		ln := &set[i]
		if ln.State.Valid() && ln.Block == b {
			ln.State = st
			ln.lru = c.tick
			return Line{}
		}
		if !ln.State.Valid() {
			if free == nil {
				free = ln
			}
			continue
		}
		if lru == nil || ln.lru < lru.lru {
			lru = ln
		}
	}
	target := free
	if target == nil {
		target = lru
		victim = *target
	}
	*target = Line{Block: b, State: st, lru: c.tick}
	c.last = target
	return victim
}

// Evict removes b and returns the line it held (State Invalid if absent).
func (c *SetAssoc) Evict(b memsys.Block) Line {
	if ln := c.Lookup(b); ln != nil {
		old := *ln
		*ln = Line{}
		return old
	}
	return Line{}
}

// AppendSetLines appends the valid lines of set s to dst, LRU order not
// guaranteed, and returns the extended slice. The victim-cache
// relocation machinery uses it, with a reused scratch buffer, to find
// the predominant page tag of a set (paper §3.4).
func (c *SetAssoc) AppendSetLines(dst []Line, s int) []Line {
	if s < 0 || s >= c.sets {
		return dst
	}
	for _, ln := range c.lines[s*c.ways : (s+1)*c.ways] {
		if ln.State.Valid() {
			dst = append(dst, ln)
		}
	}
	return dst
}

// EvictPage removes every block of page p, returning the removed lines.
// Page relocation in and out of the page cache flushes the cluster this
// way (paper §6.3: "blocks must be evicted from the cluster due to the
// page re-mappings").
func (c *SetAssoc) EvictPage(p memsys.Page) []Line {
	var out []Line
	if c.indexing == ByPage {
		// All blocks of p live in one set.
		s := int(memsys.FrameOf(p) & c.setMask)
		for i := s * c.ways; i < (s+1)*c.ways; i++ {
			ln := &c.lines[i]
			if ln.State.Valid() && memsys.PageOfBlock(ln.Block) == p {
				out = append(out, *ln)
				*ln = Line{}
			}
		}
		return out
	}
	first := memsys.FirstBlock(p)
	for i := 0; i < memsys.BlocksPerPage; i++ {
		if ln := c.Evict(first + memsys.Block(i)); ln.State.Valid() {
			out = append(out, ln)
		}
	}
	return out
}

// Range calls fn for every valid line; fn returning false stops the walk.
func (c *SetAssoc) Range(fn func(Line) bool) {
	for _, ln := range c.lines {
		if ln.State.Valid() && !fn(ln) {
			return
		}
	}
}

// Count returns the number of valid lines.
func (c *SetAssoc) Count() int {
	n := 0
	for _, ln := range c.lines {
		if ln.State.Valid() {
			n++
		}
	}
	return n
}
