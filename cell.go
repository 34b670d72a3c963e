package dsmnc

// The cell engine: runCell executes one (benchmark, system) simulation
// for RunContext and every sweep worker. A cell is the unit of
// durability — the sweep journal records finished cells — so a cell
// that is killed or fails restarts from reference zero.

import (
	"context"
	"fmt"

	"dsmnc/trace"
	"dsmnc/workload"
)

// RunCell is the exported cell engine: it executes one (benchmark,
// system) simulation with every protection a sweep worker gets —
// panics recovered into ErrCellPanic, the Options.CellTimeout bound,
// and progress accounting — without needing a sweep around it. id is
// the caller's label for the cell (an experiment id, a job id); it does
// not affect the result. The serving layer runs every job through it,
// so a served cell computes exactly what a direct Run of the same
// options computes.
func RunCell(ctx context.Context, id string, b *workload.Bench, s System, opt Options) (res Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: %v", ErrCellPanic, r)
		}
	}()
	if opt.CellTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opt.CellTimeout)
		defer cancel()
	}
	return runCell(ctx, runJob{bench: b, sys: s, opt: opt})
}

// runCell executes one (benchmark, system) simulation from reference
// zero, polling cancellation off the hot path and counting progress.
func runCell(ctx context.Context, j runJob) (Result, error) {
	b, s, opt := j.bench, j.sys, j.opt
	machine, err := Build(b, s, opt)
	if err != nil {
		return Result{}, err
	}
	// Every chunk the generator emits goes through ApplyBatch, which is
	// exactly a loop of Apply. Each run is cut at the next cancellation
	// poll (every 1024 applied references), so polls and progress land
	// on the same reference counts as a per-reference loop would put
	// them.
	var n int64
	var firstErr error
	b.EmitBatch(opt.Geometry, opt.Quantum, func(refs []trace.Ref) {
		if firstErr != nil {
			return
		}
		for len(refs) > 0 {
			if n&1023 == 0 {
				if err := ctx.Err(); err != nil {
					firstErr = err
					return
				}
			}
			run := min(1024-n&1023, int64(len(refs)))
			done, err := machine.ApplyBatch(refs[:run])
			n += int64(done)
			refs = refs[done:]
			if opt.Progress != nil {
				opt.Progress.Refs.Add(int64(done))
			}
			if err != nil {
				firstErr = err
				return
			}
		}
	})
	if firstErr != nil {
		return Result{}, firstErr
	}
	return finish(machine, s, b.Name, n, opt), nil
}

// progressSource forwards a trace source while counting what flows
// through it into a Progress; a source exposing Err() error keeps
// exposing it.
type progressSource struct {
	src trace.Source
	p   *Progress
}

// Next forwards to the wrapped source, bumping the progress counter.
func (s progressSource) Next() (trace.Ref, bool) {
	r, ok := s.src.Next()
	if ok {
		s.p.Refs.Add(1)
	}
	return r, ok
}

// Err surfaces the underlying source's decode error, if it has one.
func (s progressSource) Err() error {
	if fe, ok := s.src.(interface{ Err() error }); ok {
		return fe.Err()
	}
	return nil
}
