// Package trace defines the memory-reference trace format that drives the
// simulator, mirroring the paper's trace-driven methodology (§5.2).
//
// A trace is a sequence of Ref values: (processor, read/write, address).
// Sources produce refs lazily so that multi-million-reference workloads
// never need to be materialized at once. The package also provides a
// round-robin interleaver that merges per-processor streams the way a
// trace-driven multiprocessor simulator consumes them, and a compact
// binary on-disk codec for storing traces.
package trace

import (
	"dsmnc/memsys"
	"fmt"
)

// Op is the kind of a memory reference.
type Op uint8

// Reference kinds. The study models data references to shared memory only;
// instruction fetches and private (stack) data are excluded, as in the
// paper, where miss ratios are expressed per shared reference.
const (
	Read Op = iota
	Write
)

// String returns "R" or "W".
func (o Op) String() string {
	if o == Write {
		return "W"
	}
	return "R"
}

// Ref is one memory reference by one processor.
type Ref struct {
	PID  int32       // global processor id
	Op   Op          // Read or Write
	Addr memsys.Addr // byte address in the shared space
}

// String formats the reference for debugging.
func (r Ref) String() string {
	return fmt.Sprintf("P%d %s 0x%x", r.PID, r.Op, uint64(r.Addr))
}

// Source yields references one at a time. Next returns ok=false when the
// stream is exhausted; once exhausted a Source stays exhausted.
type Source interface {
	Next() (Ref, bool)
}

// SliceSource replays a fixed slice of references.
type SliceSource struct {
	refs []Ref
	pos  int
}

// NewSliceSource returns a Source over refs. The slice is not copied.
func NewSliceSource(refs []Ref) *SliceSource { return &SliceSource{refs: refs} }

// Next returns the next reference.
func (s *SliceSource) Next() (Ref, bool) {
	if s.pos >= len(s.refs) {
		return Ref{}, false
	}
	r := s.refs[s.pos]
	s.pos++
	return r, true
}

// Remaining returns how many references are left.
func (s *SliceSource) Remaining() int { return len(s.refs) - s.pos }

// FuncSource adapts a function to the Source interface.
type FuncSource func() (Ref, bool)

// Next calls the wrapped function.
func (f FuncSource) Next() (Ref, bool) { return f() }

// Counting wraps a source and counts what flows through it.
type Counting struct {
	Src    Source
	Reads  int64
	Writes int64
}

// Next forwards to the wrapped source, tallying reads and writes.
func (c *Counting) Next() (Ref, bool) {
	r, ok := c.Src.Next()
	if ok {
		if r.Op == Write {
			c.Writes++
		} else {
			c.Reads++
		}
	}
	return r, ok
}

// Total returns the number of references seen so far.
func (c *Counting) Total() int64 { return c.Reads + c.Writes }

// Drain consumes src fully, delivering every reference to fn.
// It returns the number of references consumed.
func Drain(src Source, fn func(Ref)) int64 {
	var n int64
	for {
		r, ok := src.Next()
		if !ok {
			return n
		}
		fn(r)
		n++
	}
}
