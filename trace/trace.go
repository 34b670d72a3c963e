// Package trace defines the memory-reference trace format that drives the
// simulator, mirroring the paper's trace-driven methodology (§5.2).
//
// A trace is a sequence of Ref values: (processor, read/write, address),
// already interleaved across processors (package workload's Emitter
// does the round-robin merge for the synthetic benchmarks). A Source
// yields refs lazily, so a multi-million-reference trace file never
// needs to be materialized at once; the package's compact binary codec
// (Writer/Reader) stores traces on disk.
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
