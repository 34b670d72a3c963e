package dsmnc

// The cell engine. A trace depends only on its benchmark, geometry and
// interleaving quantum, never on the system it drives, so runGroup
// generates one stream for every cell that consumes it and hands each
// chunk of it to each cell's own machine in turn. The stream is shared,
// the simulation is not: every member is gated, built, driven, timed
// and failed on its own, and its Result is the one a solo run computes.
// RunCell — under Run, every sweep retry and every served job — is the
// one-member group. A cell is the unit of durability — the sweep
// journal records finished cells — so a cell that is killed or fails
// restarts from reference zero. runGroup and RunTrace feed their
// reference streams through the one driver below.

import (
	"context"
	"fmt"
	"time"

	"dsmnc/internal/sim"
	"dsmnc/stats"
	"dsmnc/trace"
	"dsmnc/workload"
)

// Chunk sizes, in references of 16 bytes. Each member's turn on a
// chunk evicts its groupmates' machines from the host caches, so a
// group's chunk (8 MiB) is long enough that reloading a machine costs
// little next to applying the chunk: on perfbench's sweep, 16K-ref
// chunks gained nothing over one generator per cell, and 512K-ref
// chunks ran about a third faster. A lone machine has nothing to evict,
// so a one-member group uses a chunk (256 KiB) that stays in cache.
const (
	groupChunkRefs = 1 << 19
	soloChunkRefs  = 1 << 14
)

// RunCell is the exported cell engine: it executes one (benchmark,
// system) simulation with every protection a sweep worker gets —
// panics recovered into ErrCellPanic, the Options.CellTimeout bound,
// and progress accounting — without needing a sweep around it. id is
// the caller's label for the cell (an experiment id, a job id); the
// sweep's fault gate sees it, and it does not affect the result. The
// serving layer runs every job through it, so a served cell computes
// exactly what a direct Run of the same options computes.
func RunCell(ctx context.Context, id string, b *workload.Bench, s System, opt Options) (Result, error) {
	out := runGroup(ctx, id, []runJob{{bench: b, sys: s, opt: opt}}, time.Now)
	return out[0].res, out[0].err
}

// cellOutcome is how one cell ended.
type cellOutcome struct {
	res      Result
	err      error
	attempts int // runs spent on the cell, the group's included
}

// runGroup runs cells that share one reference stream — jobs[0]'s
// benchmark, geometry and quantum — and returns their outcomes in job
// order. Each member is charged, against its Options.CellTimeout, only
// what a solo run would spend: its own Build, its own applies, and the
// stream's generation. A panic in one machine fails only that member; a
// panic in the generator fails every member still running. now is the
// clock the charges are read from.
func runGroup(ctx context.Context, id string, jobs []runJob, now func() time.Time) []cellOutcome {
	out := make([]cellOutcome, len(jobs))
	ds := make([]*driver, len(jobs))
	live := 0 // members still running
	for i, j := range jobs {
		if ds[i], out[i].err = startCell(ctx, id, j, now); ds[i] != nil {
			live++
		}
	}
	size := soloChunkRefs
	if len(jobs) > 1 {
		size = groupChunkRefs
	}
	buf := make([]trace.Ref, 0, size)
	mark := now() // the end of the last member's apply: generation runs from here
	deliver := func() {
		t, running := now(), 0
		gen := t.Sub(mark)
		for _, d := range ds {
			if d != nil && d.err == nil {
				d.spent += gen
				t = d.feed(buf, t)
				if d.err == nil {
					running++
				}
			}
		}
		mark, live = t, running
		buf = buf[:0]
	}
	b, opt := jobs[0].bench, jobs[0].opt
	var genErr error
	if live > 0 {
		genErr = recovered(func() {
			b.EmitBatch(opt.Geometry, opt.Quantum, func(refs []trace.Ref) {
				if live == 0 {
					return // every member has failed: nothing consumes the rest
				}
				for len(refs) > 0 {
					n := copy(buf[len(buf):cap(buf)], refs)
					buf, refs = buf[:len(buf)+n], refs[n:]
					if len(buf) == cap(buf) {
						deliver()
					}
				}
			})
			deliver()
		})
	}
	for i, d := range ds {
		if d == nil {
			continue
		}
		if d.err == nil {
			d.err = genErr
		}
		if err := recovered(func() { out[i].res, out[i].err = d.result(jobs[i].sys, b.Name, jobs[i].opt) }); err != nil {
			out[i].err = err
		}
	}
	return out
}

// startCell consults the cell's gate and builds its machine, charging
// the build to the cell. A panic fails only this cell.
func startCell(ctx context.Context, id string, j runJob, now func() time.Time) (d *driver, err error) {
	defer func() {
		if r := recover(); r != nil {
			d, err = nil, fmt.Errorf("%w: %v", ErrCellPanic, r)
		}
	}()
	if gate := j.opt.cellGate; gate != nil {
		if err := gate(id, j.bench.Name, j.sys.Name); err != nil {
			return nil, err
		}
	}
	t0 := now()
	machine, err := Build(j.bench, j.sys, j.opt)
	if err != nil {
		return nil, err
	}
	return &driver{
		ctx: ctx, machine: machine, prog: j.opt.Progress,
		budget: j.opt.CellTimeout, now: now, spent: now().Sub(t0),
	}, nil
}

// driver applies runs of references to one machine from reference
// zero, polling cancellation and the cell's time budget off the hot
// path and counting progress.
type driver struct {
	ctx     context.Context
	machine *sim.System
	prog    *Progress
	n       int64 // references applied
	err     error // first error; once set, apply drops everything

	budget time.Duration    // Options.CellTimeout; zero means no bound
	now    func() time.Time // the clock spent and since are read from
	spent  time.Duration    // time charged to the cell before the current feed
	since  time.Time        // when the current feed began
}

// feed applies one chunk that began at start, charges the time it took
// to the cell, and returns the clock after it. A panic in the machine
// fails this cell alone.
func (d *driver) feed(refs []trace.Ref, start time.Time) time.Time {
	d.since = start
	if err := recovered(func() { d.apply(refs) }); err != nil {
		d.err = err
	}
	end := d.now()
	d.spent += end.Sub(start)
	return end
}

// recovered runs f and returns a panic in it as ErrCellPanic.
func recovered(f func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: %v", ErrCellPanic, r)
		}
	}()
	f()
	return nil
}

// apply drives refs through the machine with ApplyBatch, which is
// exactly a loop of Apply. Each run is cut at the next poll (every 1024
// applied references), so polls and progress land on the same
// reference counts as a per-reference loop would put them, wherever
// the chunks begin and end. A poll fails the cell with the context's
// error, or with context.DeadlineExceeded once its charged time passes
// its budget.
func (d *driver) apply(refs []trace.Ref) {
	for d.err == nil && len(refs) > 0 {
		if d.n&1023 == 0 {
			if d.err = d.ctx.Err(); d.err == nil && d.budget > 0 && d.spent+d.now().Sub(d.since) > d.budget {
				d.err = context.DeadlineExceeded
			}
			if d.err != nil {
				return
			}
		}
		run := min(1024-d.n&1023, int64(len(refs)))
		done, err := d.machine.ApplyBatch(refs[:run])
		d.n += int64(done)
		refs = refs[done:]
		if d.prog != nil {
			d.prog.Refs.Add(int64(done))
		}
		d.err = err
	}
}

// result ends the run: the first error, or the machine's event account
// for bench on system s.
func (d *driver) result(s System, bench string, opt Options) (Result, error) {
	if d.err != nil {
		return Result{}, d.err
	}
	// The series always ends on the exact end-of-run counters, even when
	// the run length is not a multiple of the sampling interval.
	d.machine.FlushSample()
	res := Result{
		System:   s.Name,
		Bench:    bench,
		Refs:     d.n,
		Counters: d.machine.Totals(),
		Model:    stats.Model{Lat: opt.Latencies, Tech: s.Tech()},
	}
	res.PerCluster = make([]stats.Counters, opt.Geometry.Clusters)
	for i := range res.PerCluster {
		res.PerCluster[i] = d.machine.Cluster(i).C
	}
	return res, nil
}
