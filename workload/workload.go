// Package workload synthesizes the reference traces that drive the
// simulator: one generator per SPLASH-2 benchmark of the paper's Table 3,
// plus micro-workloads for testing.
//
// The paper used address traces of SPARC binaries; those traces are not
// available, so each generator replays the *loop-nest address pattern* of
// its kernel — the blocked sweeps of LU, the six-step transpose of FFT,
// Ocean's stencils, Radix's permutation scatter, the octree walks of
// Barnes/FMM, Cholesky's supernodal panels, Raytrace's BVH walks — over a
// first-touch-placed shared address space. The study's conclusions hinge
// on spatial locality, working-set size and shape, read/write mix and
// sharing pattern, which is exactly what loop-nest replay reproduces
// (see DESIGN.md §2 for the substitution argument).
//
// Every generator is SPMD: it emits per-processor reference streams
// separated by barriers, and the Emitter interleaves them round-robin the
// way the paper's trace-driven simulator consumed its traces.
package workload

import (
	"fmt"
	"slices"

	"dsmnc/memsys"
	"dsmnc/trace"
)

// Scale selects how big a benchmark instance to generate.
type Scale int

// Scales. Test keeps unit tests fast; Medium is the default for figure
// regeneration; Large is closest to the paper's problem sizes.
const (
	ScaleTest Scale = iota
	ScaleSmall
	ScaleMedium
	ScaleLarge
)

// String names the scale.
func (s Scale) String() string {
	switch s {
	case ScaleTest:
		return "test"
	case ScaleSmall:
		return "small"
	case ScaleMedium:
		return "medium"
	case ScaleLarge:
		return "large"
	}
	return fmt.Sprintf("Scale(%d)", int(s))
}

// ParseScale is the inverse of Scale.String: it maps a scale's name
// back to the scale.
func ParseScale(name string) (Scale, error) {
	for s := ScaleTest; s <= ScaleLarge; s++ {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("unknown scale %q (test|small|medium|large)", name)
}

// Bench is one benchmark instance: a named generator bound to a problem
// size.
type Bench struct {
	Name    string  // paper's benchmark name
	Params  string  // problem-size description at this scale
	PaperMB float64 // shared-memory size reported in Table 3

	// SharedBytes is the shared data-set size at this scale; the
	// harness sizes proportional page caches (1/5, 1/7, 1/9) from it.
	SharedBytes int64

	run func(e *Emitter)
}

// Emit generates the benchmark's trace for geometry g, delivering the
// interleaved references to sink one at a time: it is EmitBatch,
// flattened. quantum is the round-robin interleaving grain (references
// per processor turn); values below 1 mean 1.
func (b *Bench) Emit(g memsys.Geometry, quantum int, sink func(trace.Ref)) {
	b.EmitBatch(g, quantum, func(refs []trace.Ref) {
		for _, r := range refs {
			sink(r)
		}
	})
}

// EmitBatch generates the benchmark's trace for geometry g, delivering
// each processor turn as one slice, so the per-reference dispatch is
// amortized over the quantum. The slice is only valid during the
// callback — the emitter reuses its buffers.
func (b *Bench) EmitBatch(g memsys.Geometry, quantum int, sink func([]trace.Ref)) {
	e := NewEmitter(g.Procs(), quantum, sink)
	b.run(e)
	e.Barrier()
}

// Emitter collects per-processor reference streams and interleaves them
// round-robin into a sink, one processor turn per call. Generators
// call Read/Write per processor and Barrier at synchronization points;
// the emitter also flushes on its own when the buffered phase grows too
// large, preserving per-processor program order either way.
type Emitter struct {
	bufs     [][]trace.Ref
	sink     func([]trace.Ref)
	quantum  int
	buffered int
	flushAt  int
	emitted  int64
}

// DefaultFlushAt bounds phase buffering (references across all
// processors) before an automatic interleave-and-flush.
const DefaultFlushAt = 1 << 22

// NewEmitter builds an emitter for nproc processors that delivers each
// processor turn of up to quantum references to sink (a quantum below 1
// means 1). The slice is only valid during the call.
func NewEmitter(nproc, quantum int, sink func([]trace.Ref)) *Emitter {
	if quantum < 1 {
		quantum = 1
	}
	return &Emitter{
		bufs:    make([][]trace.Ref, nproc),
		sink:    sink,
		quantum: quantum,
		flushAt: DefaultFlushAt,
	}
}

// Procs returns the number of processor streams.
func (e *Emitter) Procs() int { return len(e.bufs) }

// Emitted returns how many references have been delivered to the sink.
func (e *Emitter) Emitted() int64 { return e.emitted }

// Read emits a read by processor pid at address a.
func (e *Emitter) Read(pid int, a memsys.Addr) {
	e.bufs[pid] = append(e.bufs[pid], trace.Ref{PID: int32(pid), Op: trace.Read, Addr: a})
	e.bump()
}

// Write emits a write by processor pid at address a.
func (e *Emitter) Write(pid int, a memsys.Addr) {
	e.bufs[pid] = append(e.bufs[pid], trace.Ref{PID: int32(pid), Op: trace.Write, Addr: a})
	e.bump()
}

// ReadRange emits sequential reads covering [a, a+bytes) at the given
// access granularity (e.g. 8 for doubles).
func (e *Emitter) ReadRange(pid int, a memsys.Addr, bytes, grain int64) {
	e.emitRange(pid, a, bytes, grain, trace.Read)
}

// WriteRange emits sequential writes covering [a, a+bytes).
func (e *Emitter) WriteRange(pid int, a memsys.Addr, bytes, grain int64) {
	e.emitRange(pid, a, bytes, grain, trace.Write)
}

// emitRange appends a whole sequential run in chunks instead of going
// through the per-reference Read/Write + bump path — ranges are the bulk
// of the SPLASH-2 kernels' references, and the chunked form removes a
// call, a flush check and an append bounds dance per reference. Flush
// points are reproduced exactly: the original flushed the moment the
// buffered count reached flushAt, so each chunk is capped at the room
// left before the threshold.
func (e *Emitter) emitRange(pid int, a memsys.Addr, bytes, grain int64, op trace.Op) {
	if grain <= 0 || bytes <= 0 {
		return
	}
	n := (bytes + grain - 1) / grain
	off := int64(0)
	for n > 0 {
		chunk := n
		if room := int64(e.flushAt - e.buffered); chunk > room {
			chunk = room
		}
		buf := e.bufs[pid]
		base := len(buf)
		need := base + int(chunk)
		if cap(buf) < need {
			buf = slices.Grow(buf, int(chunk))
		}
		buf = buf[:need]
		p32 := int32(pid)
		for i := base; i < need; i++ {
			buf[i] = trace.Ref{PID: p32, Op: op, Addr: a + memsys.Addr(off)}
			off += grain
		}
		e.bufs[pid] = buf
		e.buffered += int(chunk)
		n -= chunk
		if e.buffered >= e.flushAt {
			e.flush()
		}
	}
}

func (e *Emitter) bump() {
	e.buffered++
	if e.buffered >= e.flushAt {
		e.flush()
	}
}

// Barrier flushes all buffered streams: every processor reaches the
// barrier before any post-barrier reference is emitted.
func (e *Emitter) Barrier() { e.flush() }

func (e *Emitter) flush() {
	if e.buffered == 0 {
		return
	}
	sink, quantum := e.sink, e.quantum
	pos := make([]int, len(e.bufs))
	remaining := e.buffered
	for remaining > 0 {
		for p := range e.bufs {
			buf := e.bufs[p]
			i := pos[p]
			end := i + quantum
			if end > len(buf) {
				end = len(buf)
			}
			if i == end {
				continue
			}
			sink(buf[i:end])
			remaining -= end - i
			pos[p] = end
		}
	}
	e.emitted += int64(e.buffered)
	for p := range e.bufs {
		e.bufs[p] = e.bufs[p][:0]
	}
	e.buffered = 0
}

// layout is a bump allocator of page-aligned regions in the shared
// address space.
type layout struct {
	next memsys.Addr
}

// region reserves bytes (rounded up to whole pages) and returns the base.
func (l *layout) region(bytes int64) memsys.Addr {
	base := l.next
	pages := (bytes + memsys.PageBytes - 1) / memsys.PageBytes
	l.next += memsys.Addr(pages) * memsys.PageBytes
	return base
}

// used returns the total bytes reserved so far.
func (l *layout) used() int64 { return int64(l.next) }

// rng is a small deterministic PRNG (xorshift64*), so generators are
// reproducible without importing math/rand state machinery per proc.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &rng{s: seed}
}

func (r *rng) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545f4914f6cdd1d
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.next() % uint64(n))
}

// skewPick returns an index in [0, n) with a tiered hot/cold skew
// approximating the clumped object distributions of the irregular
// SPLASH-2 applications: a quarter of picks land in the hottest 2%,
// another quarter in the hottest 10%, another in the hottest 30%, and
// the rest anywhere. The resulting per-page access counts form the
// gradient that exercises relocation thresholds and page-cache
// replacement the way full-length traces did.
func skewPick(r *rng, n int) int {
	if n <= 1 {
		return 0
	}
	pick := func(m int) int {
		if m < 1 {
			m = 1
		}
		return r.intn(m)
	}
	switch r.intn(4) {
	case 0:
		return pick(n / 50)
	case 1:
		return pick(n / 10)
	case 2:
		return pick(3 * n / 10)
	default:
		return r.intn(n)
	}
}

// All returns the paper's eight benchmarks at the given scale, in the
// order of Table 3.
func All(scale Scale) []*Bench {
	return []*Bench{
		Barnes(scale),
		Cholesky(scale),
		FFT(scale),
		FMM(scale),
		LU(scale),
		Ocean(scale),
		Radix(scale),
		Raytrace(scale),
	}
}

// ByName returns the named benchmark at the given scale, or nil.
func ByName(name string, scale Scale) *Bench {
	for _, b := range All(scale) {
		if b.Name == name {
			return b
		}
	}
	return nil
}

// Names lists the benchmark names in Table 3 order.
func Names() []string {
	return []string{"Barnes", "Cholesky", "FFT", "FMM", "LU", "Ocean", "Radix", "Raytrace"}
}
