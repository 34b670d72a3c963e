package serve

// The worker side of the fleet: a ledgerless, leaseless Scheduler
// behind an epoch-checking wire adapter. A remote coordinator dispatches
// onto it over the wire protocol (wire.go). The adapter is
// transport-agnostic — Dispatch/Poll/CancelTask/Ready take and return
// wire bytes plus an HTTP-shaped status code, and cmd/dsmworker is thin
// framing around them — so every admission, supersede and drain
// decision is unit-testable (and the decoder fuzzable) without a
// socket. The bounded pool, admission, eviction and drain are the
// scheduler's; the adapter adds only what a coordinator-facing node
// needs on top.
//
// Contract highlights:
//   - Shed, don't grow: beyond Slots running + QueueDepth waiting
//     tasks, a dispatch answers 429 and the coordinator reassigns with
//     backoff. A full worker costs latency elsewhere, never memory here.
//   - Identity is verified, not trusted: the worker recompiles the
//     dispatched Request against its own base options and refuses (412)
//     a dispatch whose options fingerprint it cannot reproduce — a
//     coordinator and a worker with different machine configurations
//     must fail loudly, not serve a wrong-named result.
//   - Epochs make re-dispatch safe: a dispatch for a task the worker
//     already holds joins it (the engine is deterministic, so one
//     computation serves every attempt), a stale-epoch dispatch, poll
//     or cancel is refused, and a worker restart simply 404s — the
//     coordinator treats all three as a lost lease and reassigns.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"dsmnc"
	"dsmnc/telemetry"
)

// WorkerConfig sizes a Worker. The zero value is usable: NumCPU slots,
// a 2×Slots admission queue, 256 kept terminal tasks, and the paper's
// default machine options.
type WorkerConfig struct {
	// Slots bounds concurrently running tasks; 0 means runtime.NumCPU().
	Slots int
	// QueueDepth bounds tasks admitted beyond the running set;
	// dispatches past Slots+QueueDepth shed with 429. 0 means 2×Slots.
	QueueDepth int
	// KeepResults bounds the terminal-task cache the coordinator polls
	// results from; beyond it the oldest are evicted. 0 means 256.
	KeepResults int
	// Options are the base machine options tasks compile against; they
	// must match the coordinator's or every dispatch is refused with an
	// options-fingerprint mismatch. Zero means dsmnc.DefaultOptions().
	Options dsmnc.Options

	// runFn replaces the cell engine — the in-package test seam.
	runFn func(ctx context.Context, j *job) (dsmnc.Result, error)
}

// Worker runs dispatched tasks on a bounded local pool. Create one with
// NewWorker; all methods are safe for concurrent use.
type Worker struct {
	cfg WorkerConfig
	s   *Scheduler

	shed     atomic.Int64 // dispatches refused 429 at capacity
	stale    atomic.Int64 // stale-epoch dispatches, polls and cancels refused
	mismatch atomic.Int64 // dispatches refused for an options-fingerprint mismatch
}

// NewWorker builds a worker pool ready for dispatches.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Slots <= 0 {
		cfg.Slots = runtime.NumCPU()
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 2 * cfg.Slots
	}
	if cfg.KeepResults <= 0 {
		cfg.KeepResults = 256
	}
	// The coordinator owns durability and supervision: no ledger, no
	// leases, no retries here.
	s, err := New(Config{
		Workers: cfg.Slots, QueueDepth: cfg.QueueDepth, KeepResults: cfg.KeepResults,
		Options:  cfg.Options,
		LeaseTTL: -1, MaxRetries: -1,
		runFn: cfg.runFn,
	})
	if err != nil {
		return nil, err
	}
	return &Worker{cfg: cfg, s: s}, nil
}

// Slots reports the worker's concurrent-task bound.
func (w *Worker) Slots() int { return w.cfg.Slots }

// SlowDown makes every task sleep d before running — the fleet torture
// suite's slow-is-not-dead drill (DSMNC_WORKER_SLOW_MS in cmd/dsmworker).
// The sleep respects cancellation, so revoked tasks still settle
// promptly. Call before serving dispatches; it is not synchronized with
// running tasks.
func (w *Worker) SlowDown(d time.Duration) {
	if d <= 0 {
		return
	}
	inner := w.s.runFn
	w.s.runFn = func(ctx context.Context, j *job) (dsmnc.Result, error) {
		select {
		case <-time.After(d):
		case <-ctx.Done():
			return dsmnc.Result{}, ctx.Err()
		}
		return inner(ctx, j)
	}
}

// answerLocked renders a task's wire status under code; callers hold
// the scheduler's mu.
func answerLocked(code int, j *job) (int, []byte) {
	wr := WireResult{ID: j.id, Epoch: j.fleetEpoch, State: j.state}
	if j.err != nil {
		wr.Error = j.err.Error()
	}
	if j.state == StateDone {
		r := j.res
		wr.Result = &r
	}
	body, err := wr.Encode()
	if err != nil {
		return 500, wireError(err)
	}
	return code, body
}

// Dispatch admits one task dispatch and returns the wire answer: 202
// with the task's status when admitted, 200 when the dispatch joined a
// task the worker already holds (a re-dispatch after a healed partition,
// or a duplicate attempt — the deterministic engine makes one
// computation serve them all), 400 for garbage or a request this
// worker cannot compile, 409 for a stale epoch, 412 for an
// options-fingerprint mismatch, 429 when full, 503 when draining.
func (w *Worker) Dispatch(body []byte) (int, []byte) {
	wr, err := ParseWireRequest(body)
	if err != nil {
		return 400, wireError(err)
	}
	bench, sys, opt, err := wr.Request.compile(w.s.cfg.Options)
	if err != nil {
		return 400, wireError(fmt.Errorf("%w: dispatch does not compile on this worker: %v", ErrBadWire, err))
	}
	if fp := opt.Fingerprint(); fp != wr.Fingerprint {
		w.mismatch.Add(1)
		return 412, wireError(fmt.Errorf(
			"options fingerprint %s does not match the dispatch's %s: worker base options differ from the coordinator's", fp, wr.Fingerprint))
	}
	opt.CellTimeout = w.s.timeoutFor(wr.Request)

	w.s.mu.Lock()
	defer w.s.mu.Unlock()
	j, created, err := w.s.submitLocked(wr.ID, wr.Request, bench, sys, opt, wr.Epoch)
	switch {
	case errors.Is(err, errStaleEpoch):
		w.stale.Add(1)
		return 409, wireError(err)
	case errors.Is(err, ErrDraining):
		return 503, wireError(errors.New("worker draining"))
	case errors.Is(err, ErrBusy):
		w.shed.Add(1)
		return 429, wireError(fmt.Errorf("worker at capacity (%d slots + %d queued)", w.cfg.Slots, w.cfg.QueueDepth))
	case err != nil:
		return 500, wireError(err)
	case created:
		return answerLocked(202, j)
	}
	return answerLocked(200, j)
}

// held runs act on one held task at one epoch and answers its status:
// 404 for a task this worker does not hold (never dispatched, evicted,
// or a restarted worker — the coordinator reassigns), 409 for a stale
// epoch.
func (w *Worker) held(id string, epoch uint64, act func(j *job)) (int, []byte) {
	w.s.mu.Lock()
	defer w.s.mu.Unlock()
	j, ok := w.s.jobs[id]
	if !ok {
		return 404, wireError(fmt.Errorf("unknown task %s", id))
	}
	if err := j.checkFleetEpochLocked(epoch); err != nil {
		w.stale.Add(1)
		return 409, wireError(err)
	}
	act(j)
	return answerLocked(200, j)
}

// Poll answers a coordinator's status poll for one task at one epoch:
// 200 with the WireResult, 404 unknown, 409 stale. A poll is the wire
// form of a lease heartbeat: a coordinator only renews while polls
// answer.
func (w *Worker) Poll(id string, epoch uint64) (int, []byte) {
	return w.held(id, epoch, func(j *job) { j.fleetEpoch = epoch })
}

// CancelTask cancels one live task at one epoch: 200 with the task's
// status (cancellation of a running task is asynchronous; the engine
// notices at its next poll), 404 unknown, 409 stale — a cancel from a
// superseded attempt must not kill the computation a newer attempt is
// waiting on.
func (w *Worker) CancelTask(id string, epoch uint64) (int, []byte) {
	return w.held(id, epoch, w.s.cancelLocked)
}

// load reports the running and waiting task counts.
func (w *Worker) load() (busy, queued int) {
	w.s.mu.Lock()
	defer w.s.mu.Unlock()
	busy = int(w.s.inflight.Load())
	return busy, max(w.s.live-busy, 0)
}

// Ready answers the readiness probe: 200 while accepting dispatches,
// 503 while draining — either way the body is the worker's capacity
// account, which is how a coordinator learns the fleet's slot total.
func (w *Worker) Ready() (int, []byte) {
	rd := WireReady{Ready: !w.s.Draining(), Reason: "ok", Slots: w.cfg.Slots}
	rd.Busy, rd.Queued = w.load()
	code := 200
	if !rd.Ready {
		rd.Reason, code = "draining", 503
	}
	body, err := rd.Encode()
	if err != nil {
		return 500, wireError(err)
	}
	return code, body
}

// Drain stops intake (dispatches answer 503) and waits for live tasks
// to settle; once ctx ends the stragglers are canceled and awaited.
// Polls keep answering throughout, so a coordinator collects results
// from a draining worker right up to its exit.
func (w *Worker) Drain(ctx context.Context) error { return w.s.Drain(ctx) }

// RegisterMetrics exposes the worker on a telemetry registry as the
// dsmnc_serve_worker_* series (docs/observability.md). The underlying
// scheduler's own dsmnc_serve_* series are deliberately not registered:
// a scrape merging a coordinator's and a worker's metrics must not see
// two values under one name.
func (w *Worker) RegisterMetrics(r *telemetry.Registry) error {
	s := w.s
	regs := []error{
		r.Gauge("dsmnc_serve_worker_slots", "Concurrent-task bound of this worker's local pool.",
			func() float64 { return float64(w.cfg.Slots) }),
		r.Gauge("dsmnc_serve_worker_busy", "Tasks currently running on the local pool.",
			func() float64 { busy, _ := w.load(); return float64(busy) }),
		r.Gauge("dsmnc_serve_worker_queued", "Admitted tasks waiting for a slot.",
			func() float64 { _, queued := w.load(); return float64(queued) }),
		r.Gauge("dsmnc_serve_worker_draining", "1 while the worker refuses fresh dispatches pending shutdown.",
			func() float64 {
				if s.Draining() {
					return 1
				}
				return 0
			}),
		r.Counter("dsmnc_serve_worker_tasks_total", "Dispatches admitted as fresh tasks.",
			func() float64 { return float64(s.submitted.Load()) }),
		r.Counter("dsmnc_serve_worker_joined_total", "Dispatches coalesced onto a task the worker already held.",
			func() float64 { return float64(s.deduped.Load()) }),
		r.Counter("dsmnc_serve_worker_shed_total", "Dispatches refused 429 at the slots+queue bound.",
			func() float64 { return float64(w.shed.Load()) }),
		r.Counter("dsmnc_serve_worker_stale_total", "Stale-epoch dispatches, polls and cancels refused.",
			func() float64 { return float64(w.stale.Load()) }),
		r.Counter("dsmnc_serve_worker_mismatch_total", "Dispatches refused for an options-fingerprint mismatch.",
			func() float64 { return float64(w.mismatch.Load()) }),
		r.Counter("dsmnc_serve_worker_done_total", "Tasks that finished successfully.",
			func() float64 { return float64(s.completed.Load()) }),
		r.Counter("dsmnc_serve_worker_failed_total", "Tasks whose outcome was a permanent error.",
			func() float64 { return float64(s.failed.Load()) }),
		r.Counter("dsmnc_serve_worker_canceled_total", "Tasks canceled by the coordinator or a drain.",
			func() float64 { return float64(s.canceled.Load()) }),
	}
	for _, err := range regs {
		if err != nil {
			return err
		}
	}
	return nil
}
