package dsmnc

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"dsmnc/internal/sim"
	"dsmnc/memsys"
	"dsmnc/stats"
	"dsmnc/trace"
	"dsmnc/workload"
)

// This file holds the sweep engine behind every table and figure of the
// paper's evaluation (§6): runMatrix runs a figure's cells in parallel,
// journaled and retried, and figures.go declares what each figure runs
// and how its cells become bars. EXPERIMENTS.md records the measured
// outcomes next to the paper's.

// Value is one bar of a figure: the miss-ratio decomposition for
// Figures 3-8, plus the normalized metric for Figures 9-11.
type Value struct {
	Read  float64 // remote read misses per shared reference, %
	Write float64 // remote write misses per shared reference, %
	Reloc float64 // relocation overhead as equivalent misses, %

	Stall   stats.Stall   // raw remote read stall (Figures 9, 11)
	Traffic stats.Traffic // raw remote traffic (Figure 10)
	Norm    float64       // metric normalized to the figure's baseline
}

// Total returns the stacked miss-ratio bar height.
func (v Value) Total() float64 { return v.Read + v.Write + v.Reloc }

// Row is one benchmark's bar group.
type Row struct {
	Bench  string
	Values []Value
}

// CellFailure records one failed (benchmark, system) cell of a sweep:
// a configuration error, a protocol invariant violation, a timeout, or
// a recovered panic. Under Options.KeepGoing the sweep completes and
// collects these; otherwise the first one fails the experiment.
type CellFailure struct {
	Bench  string
	System string
	Row    int
	Col    int
	Err    error
	// Attempts is how many times the cell ran before the failure was
	// declared final (1 unless Options.Retries re-ran it).
	Attempts int
}

// String formats the failure for diagnostics.
func (f CellFailure) String() string {
	if f.Attempts > 1 {
		return fmt.Sprintf("%s/%s: %v (after %d attempts)", f.Bench, f.System, f.Err, f.Attempts)
	}
	return fmt.Sprintf("%s/%s: %v", f.Bench, f.System, f.Err)
}

// Experiment is one regenerated table or figure.
type Experiment struct {
	ID      string // "fig3" ... "fig11"
	Title   string
	Metric  string   // "miss-ratio %", "normalized stall", "normalized traffic"
	Systems []string // bar labels within each group
	Rows    []Row    // one per benchmark
	// Failed lists the cells that did not complete (KeepGoing runs
	// only); their Values stay zero.
	Failed []CellFailure
}

// FailedCell reports the failure for (row, col), if any.
func (e *Experiment) FailedCell(row, col int) (CellFailure, bool) {
	for _, f := range e.Failed {
		if f.Row == row && f.Col == col {
			return f, true
		}
	}
	return CellFailure{}, false
}

// runJob is one (bench, system, options) simulation.
type runJob struct {
	bench *workload.Bench
	sys   System
	opt   Options
	row   int
	col   int
}

// ErrCellPanic marks a sweep cell whose simulation panicked; the panic
// is recovered into this sentinel so the sweep survives and the retry
// logic can treat the cell as transiently failed.
var ErrCellPanic = errors.New("dsmnc: cell panicked")

// transientFailure reports whether a cell failure is worth retrying:
// timeouts and recovered panics are; configuration errors, protocol
// violations, bad references or traces, and deliberate cancellation are
// permanent and retrying them only repeats the failure.
func transientFailure(err error) bool {
	switch {
	case errors.Is(err, ErrConfig),
		errors.Is(err, sim.ErrProtocol),
		errors.Is(err, sim.ErrBadRef),
		errors.Is(err, trace.ErrBadTrace),
		errors.Is(err, context.Canceled):
		return false
	}
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, ErrCellPanic)
}

// Retry backoff bounds: the first retry waits 250ms, doubling each
// attempt up to the cap.
const (
	firstRetryBackoff = 250 * time.Millisecond
	maxRetryBackoff   = 30 * time.Second
)

// runGroupRetried runs one group of cells, then re-runs each
// transiently failed member alone, up to Options.Retries extra attempts
// with bounded exponential backoff. The group's run is every member's
// first attempt.
func runGroupRetried(exp string, group []runJob) []cellOutcome {
	out := runGroup(context.Background(), exp, group, time.Now)
	for i, j := range group {
		o := &out[i]
		o.attempts = 1
		backoff := firstRetryBackoff
		for o.err != nil && o.attempts <= j.opt.Retries && transientFailure(o.err) {
			time.Sleep(backoff)
			if backoff < maxRetryBackoff {
				backoff *= 2
			}
			o.res, o.err = RunCell(context.Background(), exp, j.bench, j.sys, j.opt)
			o.attempts++
		}
	}
	return out
}

// groupJobs groups cells by the reference stream they consume — the
// same benchmark, geometry and quantum — so that runGroup generates
// each stream once. Groups keep the order in which the jobs list them,
// and each keeps its jobs' own options (Figure 3's L1Ways columns share
// their benchmark's stream). With fewer groups than workers — a
// one-benchmark sweep — each group is dealt round-robin into
// ⌈workers/groups⌉ smaller ones, so no worker idles.
func groupJobs(jobs []runJob, workers int) [][]runJob {
	type stream struct {
		bench   *workload.Bench
		g       memsys.Geometry
		quantum int
	}
	index := map[stream]int{}
	var groups [][]runJob
	for _, j := range jobs {
		k := stream{j.bench, j.opt.Geometry, j.opt.Quantum}
		i, ok := index[k]
		if !ok {
			i = len(groups)
			index[k] = i
			groups = append(groups, nil)
		}
		groups[i] = append(groups[i], j)
	}
	if len(groups) == 0 || len(groups) >= workers {
		return groups
	}
	split := (workers + len(groups) - 1) / len(groups)
	var out [][]runJob
	for _, g := range groups {
		parts := make([][]runJob, min(split, len(g)))
		for i, j := range g {
			parts[i%len(parts)] = append(parts[i%len(parts)], j)
		}
		out = append(out, parts...)
	}
	return out
}

// runMatrix executes all jobs of experiment exp and collects results by
// (row, col). The cells are grouped by the reference stream they
// consume (groupJobs), and a pool of GOMAXPROCS workers takes whole
// groups in row order, generating each stream once for all its
// members. Failed cells are returned separately; unless the jobs ran
// with KeepGoing, the first failure (in row-major order) is returned as
// the error. With Options.Journal, cells the journal already holds are
// restored instead of re-run, and every freshly-finished cell is
// appended before it counts as done.
func runMatrix(exp string, jobs []runJob, rows, cols int) ([][]Result, []CellFailure, error) {
	out := make([][]Result, rows)
	for i := range out {
		out[i] = make([]Result, cols)
	}
	// A sampler or event trace is a single-run instrument: parallel cells
	// would interleave their series into nonsense. Refuse loudly.
	if len(jobs) > 1 {
		for _, j := range jobs {
			if j.opt.Sampler != nil || j.opt.EventTrace != nil {
				return out, nil, fmt.Errorf("%w: Options.Sampler/EventTrace attach to a single run, not a %d-cell sweep",
					ErrConfig, len(jobs))
			}
		}
	}
	// Resume pass: restore journaled cells, keep the rest. A record
	// computed under different options poisons the whole resume rather
	// than silently mixing incompatible results.
	todo := make([]runJob, 0, len(jobs))
	for _, j := range jobs {
		if j.opt.Journal == nil {
			todo = append(todo, j)
			continue
		}
		res, ok, err := j.opt.Journal.lookup(exp, j.bench.Name, j.sys.Name, j.opt.fingerprint())
		if err != nil {
			return out, nil, err
		}
		if ok {
			out[j.row][j.col] = res
			if p := j.opt.Progress; p != nil {
				p.CellsTotal.Add(1)
				p.CellsDone.Add(1)
			}
			continue
		}
		todo = append(todo, j)
	}
	jobs = todo
	if len(jobs) > 0 {
		if p := jobs[0].opt.Progress; p != nil {
			p.CellsTotal.Add(int64(len(jobs)))
		}
	}
	groups := groupJobs(jobs, runtime.GOMAXPROCS(0))
	ch := make(chan []runJob)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var failed []CellFailure
	keepGoing := true
	// finish records one cell's outcome.
	finish := func(j runJob, o cellOutcome) {
		res, err := o.res, o.err
		if p := j.opt.Progress; p != nil && o.attempts > 1 {
			p.CellsRetried.Add(int64(o.attempts - 1))
		}
		if err == nil && j.opt.Journal != nil {
			// The cell is only done once it is durable: a failed
			// append degrades it to a failure so the operator
			// learns the journal is broken before trusting it.
			err = j.opt.Journal.append(journalRecord{
				Exp: exp, Bench: j.bench.Name, System: j.sys.Name,
				Fingerprint: j.opt.fingerprint(), Result: res,
			})
			if err == nil && j.opt.Progress != nil {
				j.opt.Progress.noteJournal()
			}
		}
		if p := j.opt.Progress; p != nil {
			p.CellsDone.Add(1)
		}
		if err != nil {
			if p := j.opt.Progress; p != nil {
				p.CellsFailed.Add(1)
			}
			mu.Lock()
			failed = append(failed, CellFailure{
				Bench: j.bench.Name, System: j.sys.Name,
				Row: j.row, Col: j.col, Err: err, Attempts: o.attempts,
			})
			if !j.opt.KeepGoing {
				keepGoing = false
			}
			mu.Unlock()
			return
		}
		out[j.row][j.col] = res
	}
	workers := max(1, min(runtime.GOMAXPROCS(0), len(groups)))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for g := range ch {
				for i, o := range runGroupRetried(exp, g) {
					finish(g[i], o)
				}
			}
		}()
	}
	for _, g := range groups {
		ch <- g
	}
	close(ch)
	wg.Wait()
	sort.Slice(failed, func(i, k int) bool {
		if failed[i].Row != failed[k].Row {
			return failed[i].Row < failed[k].Row
		}
		return failed[i].Col < failed[k].Col
	})
	if len(failed) > 0 && !keepGoing {
		f := failed[0]
		return out, failed, fmt.Errorf("cell %s/%s failed: %w", f.Bench, f.System, f.Err)
	}
	return out, failed, nil
}

func ratioValue(res Result) Value {
	if res.Refs == 0 {
		return Value{} // failed (or empty) cell: keep the bar at zero
	}
	rt := res.MissRatios()
	return Value{
		Read: rt.ReadMissPct, Write: rt.WriteMissPct, Reloc: rt.RelocPct,
		Stall: res.Stall(), Traffic: res.Traffic(),
	}
}

// Table3Row is one row of the regenerated Table 3.
type Table3Row struct {
	Name    string
	Params  string
	PaperMB float64
	OurMB   float64
	Refs    int64
	ReadPct float64
}

// Table3 regenerates Table 3: the benchmark roster with shared-memory
// sizes (paper's and this reproduction's) and generated trace volumes.
func Table3(opt Options) []Table3Row {
	var rows []Table3Row
	for _, b := range workload.All(opt.Scale) {
		var reads, total int64
		b.Emit(opt.Geometry, opt.Quantum, func(r trace.Ref) {
			total++
			if r.Op == trace.Read {
				reads++
			}
		})
		rows = append(rows, Table3Row{
			Name:    b.Name,
			Params:  b.Params,
			PaperMB: b.PaperMB,
			OurMB:   float64(b.SharedBytes) / (1 << 20),
			Refs:    total,
			ReadPct: 100 * float64(reads) / float64(total),
		})
	}
	return rows
}
