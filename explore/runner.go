package explore

// The Runner hosts explorations for a serving binding: explorations are
// keyed by the canonical spec fingerprint, so submitting the same spec
// twice coalesces onto one run (mirroring the scheduler's idempotent
// job IDs one level up), finished runs are cached bounded-FIFO, and
// every run's progress is streamable. The Runner is transport-agnostic;
// cmd/dsmserved binds it to POST /v1/explore and SSE.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// ErrUnknownRun reports an exploration ID the runner has never seen (or
// has evicted).
var ErrUnknownRun = errors.New("explore: unknown run")

// ErrRunnerBusy reports that the runner is at its concurrent-run bound.
var ErrRunnerBusy = errors.New("explore: too many concurrent explorations")

// RunState is the lifecycle of one hosted exploration.
type RunState string

// Run states.
const (
	RunActive RunState = "running"
	RunDone   RunState = "done"
	RunFailed RunState = "failed"
)

// RunStatus is the observable account of one hosted exploration.
type RunStatus struct {
	ID       string   `json:"id"`
	Bench    string   `json:"bench"`
	State    RunState `json:"state"`
	Error    string   `json:"error,omitempty"`
	Progress Progress `json:"progress"`
}

// run is one hosted exploration.
type run struct {
	id     string
	bench  string
	state  RunState
	errMsg string
	prog   Progress
	report *Report
	done   chan struct{}
	// watchers receive a status snapshot per progress tick plus the
	// terminal status; slow watchers miss intermediate ticks, never the
	// terminal one (the channel is closed after it).
	watchers []chan RunStatus
}

// Runner hosts explorations over one engine.
type Runner struct {
	// Engine runs the explorations; its OnProgress is owned by the
	// runner and must not be set by the caller.
	Engine *Engine
	// MaxConcurrent bounds simultaneously active explorations; further
	// spec submissions fail with ErrRunnerBusy. 0 means 2.
	MaxConcurrent int
	// Keep bounds remembered terminal runs (FIFO eviction). 0 means 64.
	Keep int

	mu     sync.Mutex
	runs   map[string]*run
	order  []string // terminal runs, oldest first, for eviction
	active int

	started, finished, failed atomic.Int64
	enumerated, simulated     atomic.Int64
}

// Start begins (or coalesces onto) the exploration of a spec. The
// returned status carries the run ID — the canonical spec fingerprint.
// The bool reports whether a new run was started.
func (ru *Runner) Start(sp Space) (RunStatus, bool, error) {
	ns, err := sp.Normalize()
	if err != nil {
		return RunStatus{}, false, err
	}
	id := ns.Fingerprint()

	ru.mu.Lock()
	defer ru.mu.Unlock()
	if ru.runs == nil {
		ru.runs = make(map[string]*run)
	}
	if r, ok := ru.runs[id]; ok {
		return r.statusLocked(), false, nil
	}
	maxc := ru.MaxConcurrent
	if maxc <= 0 {
		maxc = 2
	}
	if ru.active >= maxc {
		return RunStatus{}, false, fmt.Errorf("%w: %d active", ErrRunnerBusy, ru.active)
	}
	r := &run{id: id, bench: ns.Bench, state: RunActive, done: make(chan struct{})}
	ru.runs[id] = r
	ru.active++
	ru.started.Add(1)
	go ru.drive(r, ns)
	return r.statusLocked(), true, nil
}

// drive runs one exploration to its terminal state.
func (ru *Runner) drive(r *run, ns Space) {
	eng := *ru.Engine // shallow copy so OnProgress is per-run
	eng.OnProgress = func(p Progress) {
		ru.mu.Lock()
		r.prog = p
		switch p.Phase {
		case "enumerated":
			ru.enumerated.Add(int64(p.Enumerated))
		case "simulated":
			ru.simulated.Add(1)
		}
		ru.notifyLocked(r)
		ru.mu.Unlock()
	}
	rep, err := eng.Run(context.Background(), ns)

	ru.mu.Lock()
	defer ru.mu.Unlock()
	if err != nil {
		r.state, r.errMsg = RunFailed, err.Error()
		ru.failed.Add(1)
	} else {
		r.state, r.report = RunDone, rep
		ru.finished.Add(1)
	}
	ru.active--
	ru.order = append(ru.order, r.id)
	keep := ru.Keep
	if keep <= 0 {
		keep = 64
	}
	for len(ru.order) > keep {
		delete(ru.runs, ru.order[0])
		ru.order = ru.order[1:]
	}
	ru.notifyLocked(r)
	for _, w := range r.watchers {
		close(w)
	}
	r.watchers = nil
	close(r.done)
}

// notifyLocked snapshots the run to every watcher, dropping ticks on
// full buffers except the terminal one, which always lands (the buffer
// is drained first if needed).
func (ru *Runner) notifyLocked(r *run) {
	st := r.statusLocked()
	for _, w := range r.watchers {
		if st.State != RunActive {
			for {
				select {
				case w <- st:
				default:
					select {
					case <-w: // evict the oldest buffered tick
						continue
					default:
					}
				}
				break
			}
			continue
		}
		select {
		case w <- st:
		default:
		}
	}
}

func (r *run) statusLocked() RunStatus {
	return RunStatus{ID: r.id, Bench: r.bench, State: r.state, Error: r.errMsg, Progress: r.prog}
}

// Status reports one run.
func (ru *Runner) Status(id string) (RunStatus, error) {
	ru.mu.Lock()
	defer ru.mu.Unlock()
	r, ok := ru.runs[id]
	if !ok {
		return RunStatus{}, fmt.Errorf("%w: %s", ErrUnknownRun, id)
	}
	return r.statusLocked(), nil
}

// Report returns a finished run's report; an active run returns the
// status and no report.
func (ru *Runner) Report(id string) (*Report, RunStatus, error) {
	ru.mu.Lock()
	defer ru.mu.Unlock()
	r, ok := ru.runs[id]
	if !ok {
		return nil, RunStatus{}, fmt.Errorf("%w: %s", ErrUnknownRun, id)
	}
	return r.report, r.statusLocked(), nil
}

// Wait blocks until the run is terminal (or the context dies).
func (ru *Runner) Wait(ctx context.Context, id string) (RunStatus, error) {
	ru.mu.Lock()
	r, ok := ru.runs[id]
	ru.mu.Unlock()
	if !ok {
		return RunStatus{}, fmt.Errorf("%w: %s", ErrUnknownRun, id)
	}
	select {
	case <-r.done:
	case <-ctx.Done():
		return RunStatus{}, ctx.Err()
	}
	ru.mu.Lock()
	defer ru.mu.Unlock()
	return r.statusLocked(), nil
}

// Watch streams status snapshots: the current one immediately, then one
// per progress tick, then the terminal status, then close. Terminal
// runs get their final status and an immediate close.
func (ru *Runner) Watch(id string) (<-chan RunStatus, error) {
	ru.mu.Lock()
	defer ru.mu.Unlock()
	r, ok := ru.runs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownRun, id)
	}
	ch := make(chan RunStatus, 16)
	ch <- r.statusLocked()
	if r.state != RunActive {
		close(ch)
		return ch, nil
	}
	r.watchers = append(r.watchers, ch)
	return ch, nil
}
