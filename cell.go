package dsmnc

// The cell engine: RunCell executes one (benchmark, system) simulation
// for Run, every sweep worker and every served job. A cell is the unit
// of durability — the sweep journal records finished cells — so a cell
// that is killed or fails restarts from reference zero. RunCell and
// RunTrace feed their reference streams through the one driver below.

import (
	"context"
	"fmt"

	"dsmnc/internal/sim"
	"dsmnc/stats"
	"dsmnc/trace"
	"dsmnc/workload"
)

// RunCell is the exported cell engine: it executes one (benchmark,
// system) simulation with every protection a sweep worker gets —
// panics recovered into ErrCellPanic, the Options.CellTimeout bound,
// and progress accounting — without needing a sweep around it. id is
// the caller's label for the cell (an experiment id, a job id); the
// sweep's fault gate sees it, and it does not affect the result. The
// serving layer runs every job through it, so a served cell computes
// exactly what a direct Run of the same options computes.
func RunCell(ctx context.Context, id string, b *workload.Bench, s System, opt Options) (res Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: %v", ErrCellPanic, r)
		}
	}()
	if gate := opt.cellGate; gate != nil {
		if err := gate(id, b.Name, s.Name); err != nil {
			return Result{}, err
		}
	}
	if opt.CellTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opt.CellTimeout)
		defer cancel()
	}
	machine, err := Build(b, s, opt)
	if err != nil {
		return Result{}, err
	}
	d := driver{ctx: ctx, machine: machine, prog: opt.Progress}
	b.EmitBatch(opt.Geometry, opt.Quantum, d.apply)
	return d.result(s, b.Name, opt)
}

// driver applies runs of references to one machine from reference
// zero, polling cancellation off the hot path and counting progress.
type driver struct {
	ctx     context.Context
	machine *sim.System
	prog    *Progress
	n       int64 // references applied
	err     error // first error; once set, apply drops everything
}

// apply drives refs through the machine with ApplyBatch, which is
// exactly a loop of Apply. Each run is cut at the next cancellation
// poll (every 1024 applied references), so polls and progress land on
// the same reference counts as a per-reference loop would put them.
func (d *driver) apply(refs []trace.Ref) {
	for d.err == nil && len(refs) > 0 {
		if d.n&1023 == 0 {
			if d.err = d.ctx.Err(); d.err != nil {
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
