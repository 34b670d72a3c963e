package dsmnc

// Checkpoint/resume at the facade level: RestoreFor rebuilds a machine
// from a snapshot taken by sim.System.Snapshot, and runCell — the
// engine under RunContext and every sweep worker — periodically
// checkpoints in-flight cells so a killed large-scale run resumes from
// its last checkpoint instead of reference zero.

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"

	"dsmnc/internal/fsdir"
	"dsmnc/internal/sim"
	"dsmnc/internal/snapshot"
	"dsmnc/trace"
	"dsmnc/workload"
)

// ErrBadSnapshot re-exports the snapshot decoder's sentinel: any
// corrupt, truncated or configuration-mismatched snapshot fails with an
// error wrapping it, never a panic.
var ErrBadSnapshot = snapshot.ErrBadSnapshot

// RestoreFor rebuilds the machine for (sharedBytes, s, opt) — the same
// parameters BuildFor takes — and loads the snapshot read from r into
// it. The snapshot must have been taken from an identically-configured
// machine; corruption or mismatch fails with an ErrBadSnapshot-wrapped
// error, an unbuildable description with ErrConfig.
func RestoreFor(r io.Reader, sharedBytes int64, s System, opt Options) (*sim.System, error) {
	cfg, err := configFor(sharedBytes, s, opt)
	if err != nil {
		return nil, err
	}
	machine, err := sim.Restore(r, cfg)
	if err != nil {
		if errors.Is(err, snapshot.ErrBadSnapshot) {
			return nil, err
		}
		return nil, fmt.Errorf("%w: %w", ErrConfig, err)
	}
	return machine, nil
}

// RunCell is the exported cell engine: it executes one (benchmark,
// system) simulation with every protection a sweep worker gets —
// panics recovered into ErrCellPanic, the Options.CellTimeout bound,
// mid-cell checkpoint/resume, and progress accounting — without
// needing a sweep around it. id scopes mid-cell checkpoints the way an
// experiment id does (pass "" when CheckpointEvery is off). The serving
// layer runs every job through it, so a served cell computes exactly
// what a direct Run of the same options computes.
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
	return runCell(ctx, id, runJob{bench: b, sys: s, opt: opt})
}

// runCell executes one (benchmark, system) simulation: restore from a
// mid-cell checkpoint when one exists, skip the already-consumed trace
// prefix, poll cancellation off the hot path, count progress, and
// re-checkpoint every Options.CheckpointEvery applied references.
func runCell(ctx context.Context, exp string, j runJob) (Result, error) {
	b, s, opt := j.bench, j.sys, j.opt
	ck := checkpointFor(exp, j)
	var machine *sim.System
	if ck != nil {
		machine = ck.restore(b.SharedBytes, s, opt)
	}
	if machine == nil {
		m, err := Build(b, s, opt)
		if err != nil {
			return Result{}, err
		}
		machine = m
	}
	// Every chunk the generator emits goes through ApplyBatch, which is
	// exactly a loop of Apply. Each run is cut at the next cancellation
	// poll (every 1024 applied references) and the next checkpoint, so
	// polls, checkpoints and progress land on the same reference counts
	// as a per-reference loop would put them.
	n := machine.RefsApplied()
	skip := n // the checkpoint already consumed this prefix
	var sinceCkpt int64
	var firstErr error
	b.EmitBatch(opt.Geometry, opt.Quantum, func(refs []trace.Ref) {
		if firstErr != nil {
			return
		}
		if skip > 0 {
			drop := min(skip, int64(len(refs)))
			skip -= drop
			refs = refs[drop:]
		}
		for len(refs) > 0 {
			if n&1023 == 0 {
				if err := ctx.Err(); err != nil {
					firstErr = err
					return
				}
			}
			run := 1024 - n&1023
			if ck != nil {
				run = min(run, opt.CheckpointEvery-sinceCkpt)
			}
			run = min(run, int64(len(refs)))
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
			if ck != nil {
				if sinceCkpt += int64(done); sinceCkpt >= opt.CheckpointEvery {
					sinceCkpt = 0
					ck.save(machine)
				}
			}
		}
	})
	if firstErr != nil {
		return Result{}, firstErr
	}
	if ck != nil {
		ck.clear()
	}
	return finish(machine, s, b.Name, n, opt), nil
}

// cellCheckpoint is the on-disk mid-cell snapshot slot of one cell.
type cellCheckpoint struct {
	path string
}

// checkpointFor returns the checkpoint slot for a cell, or nil when
// mid-cell checkpointing is off. The file name hashes the cell's full
// identity (experiment, benchmark, system, options fingerprint) so a
// stale checkpoint from a different configuration can never be loaded
// into the wrong cell.
func checkpointFor(exp string, j runJob) *cellCheckpoint {
	if j.opt.CheckpointEvery <= 0 {
		return nil
	}
	dir := j.opt.CheckpointDir
	if dir == "" && j.opt.Journal != nil {
		dir = filepath.Dir(j.opt.Journal.Path())
	}
	if dir == "" {
		dir = os.TempDir()
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s\x00%s\x00%s\x00%s", exp, j.bench.Name, j.sys.Name, j.opt.fingerprint())
	return &cellCheckpoint{path: filepath.Join(dir, fmt.Sprintf("dsmnc-%016x.ckpt", h.Sum64()))}
}

// restore loads the checkpointed machine, or returns nil to restart the
// cell from reference zero: a missing, corrupt or mismatched checkpoint
// is not an error, just lost progress.
func (c *cellCheckpoint) restore(sharedBytes int64, s System, opt Options) *sim.System {
	f, err := os.Open(c.path)
	if err != nil {
		return nil
	}
	defer f.Close()
	machine, err := RestoreFor(f, sharedBytes, s, opt)
	if err != nil {
		os.Remove(c.path)
		return nil
	}
	return machine
}

// save atomically replaces the checkpoint: write to a temp file, fsync,
// rename. Best effort — a failed write costs durability, not
// correctness, and never interrupts the cell.
func (c *cellCheckpoint) save(m *sim.System) {
	tmp := c.path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return
	}
	err = m.Snapshot(f)
	if serr := f.Sync(); err == nil {
		err = serr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return
	}
	if err := os.Rename(tmp, c.path); err != nil {
		os.Remove(tmp)
		return
	}
	// The rename is only crash-durable once the directory entry is
	// synced; best effort, like the rest of the checkpoint path.
	_ = fsdir.Sync(filepath.Dir(c.path))
}

// clear removes the checkpoint once its cell has finished.
func (c *cellCheckpoint) clear() { os.Remove(c.path) }

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
