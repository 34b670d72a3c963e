package serve

// The job scheduler: a bounded FIFO run queue feeding a fixed worker
// pool. The queue is a slice under the scheduler's one lock, with a
// condition variable to wake idle pool goroutines, so submission,
// ledger replay and reassignment all enqueue the same way: append under
// mu and signal. Submissions are deduplicated by an idempotent job ID
// (the request fingerprint crossed with the options fingerprint the
// sweep journal uses), results are cached in a bounded map, full queues
// shed with ErrBusy instead of growing, and Drain stops intake and
// settles every job — forcibly cancelling what remains once its
// context expires — so a SIGTERM'd server exits with zero leaked
// goroutines.
//
// Execution sits behind the Executor interface (executor.go): each
// dequeued job is dispatched to an executor fault domain under a
// heartbeat-renewed lease. A lease that expires without renewal —
// worker crash, stall, dropped result — is revoked by the monitor and
// the job reassigned with a bounded retry budget, exponential backoff
// and deterministic seeded jitter (a per-job timer re-appends the job
// once its backoff ends); an executor that loses K leases in a
// row is quarantined by the circuit breaker while the scheduler keeps
// serving on the healthy remainder. Late or duplicate results from a
// revoked attempt are discarded by an epoch guard, so a job completes
// exactly once. The chaos suite (chaos_test.go, make chaos-smoke)
// proves all of it under seeded fault injection.
//
// With a Ledger attached the scheduler is crash-safe: every transition
// is journaled (acknowledged jobs durably, before the client sees the
// ID), startup replays the ledger — terminal jobs repopulate the result
// cache, non-terminal jobs join the run queue under their existing
// idempotent IDs, in arrival order and ahead of any new submission,
// with their reassignment counts intact — and a watchdog
// force-fails jobs that overrun their deadline by WatchdogFactor
// without settling. The kill-torture suite (cmd/dsmserved, make
// crash-smoke) SIGKILLs the real binary at every ledger crash point and
// requires zero lost acknowledged jobs, zero duplicated completions,
// and recovered results field-identical to the golden corpus.

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dsmnc"
	"dsmnc/telemetry"
	"dsmnc/workload"
)

// State is a job's lifecycle position.
type State string

// Job states. A job moves queued -> running -> {done, failed}, or to
// canceled from either live state; a running job whose lease is lost
// moves back to queued until its retry budget runs out.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Status is the observable account of one job.
type Status struct {
	ID     string `json:"id"`
	Bench  string `json:"bench"`
	System string `json:"system"`
	State  State  `json:"state"`
	// Error carries the failure (or cancellation) reason of a
	// terminal, unsuccessful job.
	Error string `json:"error,omitempty"`
	// Attempt counts dispatches: 1 on the first run, higher after
	// lease-loss reassignments. Executor names the fault domain of the
	// latest attempt.
	Attempt  int       `json:"attempt,omitempty"`
	Executor string    `json:"executor,omitempty"`
	Queued   time.Time `json:"queued"`
	Started  time.Time `json:"started,omitzero"`
	Finished time.Time `json:"finished,omitzero"`
}

// maxRetryBackoff caps the exponential reassignment backoff.
const maxRetryBackoff = time.Minute

// Config sizes a Scheduler. The zero value is usable: NumCPU workers, a
// 256-deep queue, no default deadline, 1024 cached results, one local
// executor under 15s leases with 2 retries, and the paper's default
// machine options.
type Config struct {
	// Workers is the pool size; 0 means runtime.NumCPU().
	Workers int
	// QueueDepth bounds the jobs admitted beyond the running set:
	// with Workers+QueueDepth jobs queued or running, submissions shed
	// with ErrBusy. 0 means 256.
	QueueDepth int
	// DefaultTimeout bounds jobs that do not carry their own
	// timeout_ms; 0 means unbounded.
	DefaultTimeout time.Duration
	// MaxTimeout caps request-supplied timeouts; 0 means uncapped.
	MaxTimeout time.Duration
	// KeepResults bounds the terminal-job cache: beyond it the oldest
	// finished jobs (and their results) are evicted, and a resubmission
	// of an evicted ID re-runs. 0 means 1024.
	KeepResults int
	// Options are the base machine options every job starts from
	// (geometry, processor caches, latencies); the request sets Scale
	// and Check on top. The zero value means dsmnc.DefaultOptions().
	// Single-run instruments (Sampler, EventTrace) and sweep journals
	// are rejected — jobs run concurrently.
	Options dsmnc.Options
	// Progress, when set, aggregates reference and cell counts across
	// all served jobs (register it on a telemetry registry under a job
	// label; see Progress.RegisterMetricsLabeled).
	Progress *dsmnc.Progress
	// Ledger, when set, makes the scheduler crash-safe: accepted jobs
	// are durably journaled before the submission is acknowledged, and
	// New replays the ledger — restoring terminal results and queueing
	// unfinished jobs under their existing IDs ahead of any new
	// submission. Open one
	// with OpenLedger; the scheduler owns its lifecycle from here to
	// Drain. The fsync per transition serializes under the scheduler's
	// lock: a deliberate trade — jobs are whole simulations, and an
	// acknowledgement must mean durable.
	Ledger *Ledger
	// WatchdogFactor force-fails a running job (with ErrWatchdog) once
	// it has run WatchdogFactor × its deadline without settling —
	// insurance against an engine that stops honoring its context.
	// 0 disables the watchdog; jobs without a deadline are never
	// watchdog-killed.
	WatchdogFactor float64
	// CompactEvery bounds ledger growth: after this many terminal
	// records the ledger is rewritten (atomic tmp+rename) to just the
	// live jobs' records, so its size tracks KeepResults instead of
	// history. 0 means 2×KeepResults.
	CompactEvery int

	// Executors are the fault domains jobs dispatch to. Each job routes
	// by consistent-hashing its idempotent ID over the executor names
	// (128 virtual nodes per name): duplicate submissions land on the
	// same node fleet-wide, a node joining or leaving moves only ~1/N
	// of the fingerprints, and any coordinator replica configured with
	// the same names routes identically. A job whose home domain is
	// unhealthy or just lost its lease falls back along the ring walk.
	// Nil means one in-process Local executor. Names must be unique.
	Executors []Executor
	// LeaseTTL is how long a running attempt may go without a
	// heartbeat before its lease is revoked and the job reassigned.
	// 0 means 15s; negative disables leases (the watchdog is then the
	// only supervisor). The monitor scans leases and deadlines every
	// 250ms, or every LeaseTTL/8 when that is shorter, never below 5ms.
	LeaseTTL time.Duration
	// MaxRetries bounds reassignments after lease losses: a job may be
	// dispatched at most MaxRetries+1 times before it settles failed
	// with ErrLeaseLost. 0 means 2; negative means no retries.
	MaxRetries int

	// The fields below are in-package test seams; every binary runs
	// with their defaults.

	// retryBackoff is the base delay before a reassigned job re-enters
	// the queue; it doubles per consecutive loss (capped at 1min) and
	// is jittered over [d/2, d] by an RNG with a fixed seed, so the
	// reassignment schedule is reproducible.
	// 0 means 250ms; negative requeues immediately.
	retryBackoff time.Duration
	// quarantineAfter is the circuit breaker's threshold: an executor
	// that loses this many leases consecutively is quarantined for
	// quarantineFor (then probed half-open). 0 means 3; negative
	// disables the breaker.
	quarantineAfter int
	// quarantineFor is how long a tripped executor sits out.
	// 0 means 30s.
	quarantineFor time.Duration
	// runFn, when set, replaces the cell engine; it is needed at
	// construction time because the pool starts running replayed jobs
	// before New returns the scheduler.
	runFn func(ctx context.Context, j *job) (dsmnc.Result, error)
}

// job is the scheduler's record of one submission.
type job struct {
	id    string
	req   Request
	bench *workload.Bench
	sys   dsmnc.System
	opt   dsmnc.Options

	// Mutable state, guarded by the scheduler's mu.
	state    State
	err      error
	res      dsmnc.Result
	queued   time.Time
	started  time.Time
	finished time.Time
	subs     []chan Status

	// Lease bookkeeping, guarded by the scheduler's mu. epoch
	// increments per dispatch; a result or heartbeat carrying a stale
	// epoch (or arriving after the job left running) is discarded, so
	// a revoked attempt can never complete its job twice. attempt
	// counts dispatches, losses counts revoked leases — the retry
	// budget — and both survive a ledger replay.
	attempt       int
	losses        int
	epoch         uint64
	lastBeat      time.Time
	lastExec      string
	exec          *execState
	attemptCancel context.CancelFunc
	// backoff is the pending retry timer of a reassigned job waiting
	// out its delay (queued, but not yet back in the run queue).
	backoff *time.Timer

	// fleetEpoch is the newest fleet dispatch epoch a worker has seen
	// for this job (worker.go); exchanges at older epochs are refused.
	// Zero on a coordinator. Guarded by the scheduler's mu.
	fleetEpoch uint64

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{} // closed on reaching a terminal state
}

// statusLocked snapshots the job's status; callers hold the scheduler's
// mu.
func (j *job) statusLocked() Status {
	st := Status{
		ID:      j.id,
		Bench:   j.req.Bench,
		System:  j.sys.Name,
		State:   j.state,
		Attempt: j.attempt, Executor: j.lastExec,
		Queued: j.queued, Started: j.started, Finished: j.finished,
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	return st
}

// Scheduler runs submitted jobs on a bounded worker pool. Create one
// with New; all methods are safe for concurrent use.
type Scheduler struct {
	cfg Config

	mu         sync.Mutex
	jobs       map[string]*job
	doneOrder  []string // terminal job IDs, oldest first, for eviction
	live       int      // queued + running jobs: the admission count
	draining   bool
	runq       []*job       // jobs waiting for a pool goroutine, oldest first
	wake       *sync.Cond   // on mu: signals a runq append or the drain
	replayWait int          // replayed jobs still in runq, all at its head
	execs      []*execState // executor fault domains, fixed at New
	execByName map[string]*execState
	ring       *ring      // consistent-hash routing over execs
	retryRNG   *rand.Rand // seeded jitter source, under mu

	wg sync.WaitGroup // worker pool

	ledger        *Ledger
	stopMonitor   chan struct{} // closed by Drain after the workers exit
	monitorDone   chan struct{} // closed when the monitor has exited
	terminalSince int           // terminal records since the last compaction, under mu

	inflight      atomic.Int64
	submitted     atomic.Int64
	deduped       atomic.Int64
	shed          atomic.Int64
	completed     atomic.Int64
	failed        atomic.Int64
	canceled      atomic.Int64
	restoredJobs  atomic.Int64 // terminal jobs restored from the ledger
	replayedJobs  atomic.Int64 // non-terminal jobs re-enqueued from the ledger
	watchdogKills atomic.Int64
	ledgerErrs    atomic.Int64
	leaseLost     atomic.Int64 // leases revoked or surrendered
	reassigned    atomic.Int64 // jobs requeued after a lease loss
	quarantined   atomic.Int64 // circuit-breaker trips (incl. re-arms)
	staleResults  atomic.Int64 // late/duplicate attempt outcomes discarded

	runHist  *telemetry.Histogram // run latency, seconds
	waitHist *telemetry.Histogram // queue wait, seconds

	// runFn executes one job; tests swap it to drive the scheduler
	// with synthetic work.
	runFn func(ctx context.Context, j *job) (dsmnc.Result, error)
}

// New starts a scheduler: the worker pool is live and accepting
// submissions until Drain. With cfg.Ledger set, New first replays the
// ledger — terminal jobs repopulate the result cache and non-terminal
// jobs join the run queue under their recorded IDs, in arrival order,
// before the pool starts. A backlog deeper than Workers+QueueDepth
// drains through the pool like any other queued work; Recovered reports
// when what is left of it fits that bound.
func New(cfg Config) (*Scheduler, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.NumCPU()
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 256
	}
	if cfg.KeepResults <= 0 {
		cfg.KeepResults = 1024
	}
	if cfg.CompactEvery <= 0 {
		cfg.CompactEvery = 2 * cfg.KeepResults
	}
	switch {
	case cfg.LeaseTTL == 0:
		cfg.LeaseTTL = 15 * time.Second
	case cfg.LeaseTTL < 0:
		cfg.LeaseTTL = 0
	}
	switch {
	case cfg.MaxRetries == 0:
		cfg.MaxRetries = 2
	case cfg.MaxRetries < 0:
		cfg.MaxRetries = 0
	}
	switch {
	case cfg.retryBackoff == 0:
		cfg.retryBackoff = 250 * time.Millisecond
	case cfg.retryBackoff < 0:
		cfg.retryBackoff = 0
	}
	switch {
	case cfg.quarantineAfter == 0:
		cfg.quarantineAfter = 3
	case cfg.quarantineAfter < 0:
		cfg.quarantineAfter = 0
	}
	if cfg.quarantineFor <= 0 {
		cfg.quarantineFor = 30 * time.Second
	}
	if len(cfg.Executors) == 0 {
		cfg.Executors = []Executor{Local("local-0")}
	}
	if cfg.Options.Geometry.Clusters == 0 {
		cfg.Options = dsmnc.DefaultOptions()
	}
	if cfg.Options.Sampler != nil || cfg.Options.EventTrace != nil {
		return nil, fmt.Errorf("%w: Sampler/EventTrace are single-run instruments; served jobs run concurrently",
			dsmnc.ErrConfig)
	}
	if cfg.Options.Journal != nil {
		return nil, fmt.Errorf("%w: the sweep journal is not a serving result store", dsmnc.ErrConfig)
	}
	cfg.Options.Progress = cfg.Progress

	runHist, err := telemetry.NewHistogram(telemetry.DefaultLatencyBuckets()...)
	if err != nil {
		return nil, err
	}
	waitHist, err := telemetry.NewHistogram(telemetry.DefaultLatencyBuckets()...)
	if err != nil {
		return nil, err
	}
	s := &Scheduler{
		cfg:         cfg,
		jobs:        map[string]*job{},
		retryRNG:    rand.New(rand.NewSource(1)),
		ledger:      cfg.Ledger,
		stopMonitor: make(chan struct{}),
		monitorDone: make(chan struct{}),
		runHist:     runHist,
		waitHist:    waitHist,
	}
	s.wake = sync.NewCond(&s.mu)
	s.execByName = map[string]*execState{}
	names := make([]string, 0, len(cfg.Executors))
	for _, e := range cfg.Executors {
		if e == nil || e.Name() == "" {
			return nil, fmt.Errorf("%w: executors must be non-nil and named", dsmnc.ErrConfig)
		}
		if _, dup := s.execByName[e.Name()]; dup {
			return nil, fmt.Errorf("%w: duplicate executor name %q", dsmnc.ErrConfig, e.Name())
		}
		if b, ok := e.(schedulerBound); ok {
			b.bind(s)
		}
		es := &execState{exec: e, name: e.Name()}
		s.execs = append(s.execs, es)
		s.execByName[es.name] = es
		names = append(names, es.name)
	}
	s.ring = newRing(names)
	s.runFn = func(ctx context.Context, j *job) (dsmnc.Result, error) {
		return dsmnc.RunCell(ctx, "serve/"+j.id, j.bench, j.sys, j.opt)
	}
	if cfg.runFn != nil {
		s.runFn = cfg.runFn
	}
	if s.ledger != nil {
		s.recoverFromLedger()
	}
	for w := 0; w < cfg.Workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	if cfg.LeaseTTL > 0 || cfg.WatchdogFactor > 0 {
		go s.monitor()
	} else {
		close(s.monitorDone)
	}
	return s, nil
}

// timeoutFor resolves a request's effective deadline under the
// scheduler's default and cap — shared by Submit and ledger recovery so
// a replayed job recomputes exactly the ID it was accepted under.
func (s *Scheduler) timeoutFor(req Request) time.Duration {
	timeout := time.Duration(req.TimeoutMS) * time.Millisecond
	if timeout <= 0 {
		timeout = s.cfg.DefaultTimeout
	}
	if s.cfg.MaxTimeout > 0 && (timeout <= 0 || timeout > s.cfg.MaxTimeout) {
		timeout = s.cfg.MaxTimeout
	}
	return timeout
}

// closedChan is the pre-closed done signal recovered terminal jobs
// share.
var closedChan = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// recoverFromLedger replays the folded ledger into the scheduler's maps
// (called from New, before anything is shared): terminal jobs are
// restored complete with results, non-terminal jobs are rebuilt and
// appended to the run queue in arrival order. A recovered job whose
// request no longer compiles to its recorded ID — the server's base
// options changed between boots — is settled as failed rather than run
// under a stale identity.
func (s *Scheduler) recoverFromLedger() {
	recovered := s.ledger.jobs()
	// Terminal jobs join the result cache in finished order, so the
	// KeepResults eviction discipline picks up where the dead process
	// left off; live jobs queue in their original arrival order.
	sort.SliceStable(recovered, func(i, k int) bool {
		ti, tk := recovered[i], recovered[k]
		if ti.state.Terminal() != tk.state.Terminal() {
			return ti.state.Terminal()
		}
		if ti.state.Terminal() {
			return ti.finished.Before(tk.finished)
		}
		return ti.queued.Before(tk.queued)
	})
	for _, rj := range recovered {
		if rj.state.Terminal() {
			j := &job{
				id: rj.id, req: rj.req, state: rj.state,
				queued: rj.queued, started: rj.started, finished: rj.finished,
				done: closedChan,
			}
			// Best effort: recompile for the Status fields (bench/system
			// names); the recorded outcome stands either way.
			if bench, sys, opt, err := rj.req.compile(s.cfg.Options); err == nil {
				j.bench, j.sys, j.opt = bench, sys, opt
			}
			if rj.errMsg != "" {
				j.err = errors.New(rj.errMsg)
			}
			if rj.res != nil {
				j.res = *rj.res
			}
			s.jobs[j.id] = j
			s.doneOrder = append(s.doneOrder, j.id)
			s.restoredJobs.Add(1)
			continue
		}
		bench, sys, opt, err := rj.req.compile(s.cfg.Options)
		if err == nil {
			opt.CellTimeout = s.timeoutFor(rj.req)
			if got := jobID(rj.req, opt); got != rj.id {
				err = fmt.Errorf("%w: job %s was accepted under different options (replays as %s)",
					ErrBadLedger, rj.id, got)
			}
		}
		ctx, cancel := context.WithCancel(context.Background())
		j := &job{
			id: rj.id, req: rj.req, bench: bench, sys: sys, opt: opt,
			state: StateQueued, queued: rj.queued,
			// The reassignment budget survives the restart: a job that
			// lost N leases before the crash resumes with N losses spent.
			attempt: rj.attempts, losses: rj.attempts,
			ctx: ctx, cancel: cancel, done: make(chan struct{}),
		}
		s.jobs[j.id] = j
		s.live++
		if err != nil {
			j.state = StateFailed
			j.err = err
			j.finished = time.Now()
			s.failed.Add(1)
			s.settleLocked(j)
			continue
		}
		s.runq = append(s.runq, j)
		s.replayWait++
		s.replayedJobs.Add(1)
	}
	s.evictLocked()
}

// Recovered reports whether startup ledger recovery is over: the
// replayed jobs still waiting in the run queue fit its admission bound,
// Workers+QueueDepth, so the backlog no longer crowds out new
// submissions. A scheduler without a ledger (or with a backlog that
// fits) is recovered from birth. The HTTP binding keeps /readyz at 503
// until this turns true.
func (s *Scheduler) Recovered() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recoveredLocked()
}

// recoveredLocked is Recovered for callers holding mu.
func (s *Scheduler) recoveredLocked() bool {
	return s.replayWait <= s.cfg.Workers+s.cfg.QueueDepth
}

// RecoveryStats returns how many terminal jobs the ledger restored into
// the result cache and how many non-terminal jobs it re-enqueued.
func (s *Scheduler) RecoveryStats() (restored, replayed int64) {
	return s.restoredJobs.Load(), s.replayedJobs.Load()
}

// monitorTick is the monitor's scan cadence: 250ms, or LeaseTTL/8
// when that is shorter (so a lease is revoked within ~1/8 of its TTL
// past expiry), never below 5ms. leaseTTL 0 means leases are off.
func monitorTick(leaseTTL time.Duration) time.Duration {
	tick := 250 * time.Millisecond
	if leaseTTL > 0 && leaseTTL/8 < tick {
		tick = max(leaseTTL/8, 5*time.Millisecond)
	}
	return tick
}

// monitor is the scheduler's supervisor goroutine, merging the lease
// scan and the deadline watchdog: a running job whose last heartbeat is
// older than LeaseTTL has its lease revoked and is reassigned
// (leaseLostLocked applies the retry budget and circuit breaker), and a
// job that overran its deadline by WatchdogFactor without settling is
// force-failed with ErrWatchdog — the engine is contractually obliged
// to notice cancellation within a poll interval, so a job this far over
// is wedged and its eventual return is discarded by the epoch guard.
// The monitor outlives the workers (Drain stops it last) so executors
// blocked on a dead attempt are still revoked during a drain.
func (s *Scheduler) monitor() {
	defer close(s.monitorDone)
	t := time.NewTicker(monitorTick(s.cfg.LeaseTTL))
	defer t.Stop()
	for {
		select {
		case <-s.stopMonitor:
			return
		case now := <-t.C:
			s.mu.Lock()
			for _, j := range s.jobs {
				if j.state != StateRunning {
					continue
				}
				if s.cfg.LeaseTTL > 0 && now.Sub(j.lastBeat) > s.cfg.LeaseTTL {
					s.leaseLostLocked(j, j.exec, fmt.Errorf("no heartbeat for %v (executor %s)",
						now.Sub(j.lastBeat).Round(time.Millisecond), j.lastExec))
					continue
				}
				if s.cfg.WatchdogFactor > 0 && j.opt.CellTimeout > 0 {
					limit := time.Duration(float64(j.opt.CellTimeout) * s.cfg.WatchdogFactor)
					if now.Sub(j.started) <= limit {
						continue
					}
					j.state = StateFailed
					j.err = fmt.Errorf("%w: ran %v against a %v deadline",
						ErrWatchdog, now.Sub(j.started).Round(time.Millisecond), j.opt.CellTimeout)
					j.finished = now
					s.failed.Add(1)
					s.watchdogKills.Add(1)
					s.settleLocked(j)
				}
			}
			s.mu.Unlock()
		}
	}
}

// jobID derives the idempotent job identity: the canonical request
// fingerprint crossed with the options fingerprint the sweep journal
// stores with every cell, so identical work coalesces and different
// work never does.
func jobID(req Request, opt dsmnc.Options) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s", req.Fingerprint(), opt.Fingerprint())
	return fmt.Sprintf("%016x", h.Sum64())
}

// Submit validates and enqueues one job. Submissions are idempotent: a
// request whose job is already queued, running or finished returns that
// job's current status without enqueueing anything. With Workers +
// QueueDepth jobs already queued or running, a submission sheds with
// ErrBusy; a draining scheduler sheds with ErrDraining (which wraps
// ErrBusy). Malformed requests fail with ErrBadRequest.
func (s *Scheduler) Submit(req Request) (Status, error) {
	req = req.normalized()
	if err := req.validate(); err != nil {
		return Status{}, err
	}
	bench, sys, opt, err := req.compile(s.cfg.Options)
	if err != nil {
		return Status{}, err
	}
	opt.CellTimeout = s.timeoutFor(req)
	id := jobID(req, opt)

	s.mu.Lock()
	defer s.mu.Unlock()
	j, _, err := s.submitLocked(id, req, bench, sys, opt, 0)
	if err != nil {
		return Status{}, err
	}
	return j.statusLocked(), nil
}

// errStaleEpoch refuses a fleet exchange carrying an older epoch than
// the newest one the job has seen.
var errStaleEpoch = errors.New("serve: stale fleet epoch")

// checkFleetEpochLocked refuses an exchange at an epoch older than the
// job's fleetEpoch; callers hold mu.
func (j *job) checkFleetEpochLocked(epoch uint64) error {
	if epoch < j.fleetEpoch {
		return fmt.Errorf("%w: task %s is held at epoch %d; epoch %d is stale", errStaleEpoch, j.id, j.fleetEpoch, epoch)
	}
	return nil
}

// submitLocked admits one compiled job under id, or joins the job
// already held under it: created reports which. A join at a newer fleet
// epoch advances the job's, one at an older epoch is refused with
// errStaleEpoch. Admission is exact: queued plus running jobs are
// counted against Workers+QueueDepth, so a dispatch landing before a
// pool goroutine has dequeued the previous one is not shed early.
// Callers hold mu.
func (s *Scheduler) submitLocked(id string, req Request, bench *workload.Bench, sys dsmnc.System, opt dsmnc.Options, epoch uint64) (j *job, created bool, err error) {
	if existing, ok := s.jobs[id]; ok {
		if err := existing.checkFleetEpochLocked(epoch); err != nil {
			return nil, false, err
		}
		existing.fleetEpoch = epoch
		s.deduped.Add(1)
		return existing, false, nil
	}
	if s.draining {
		s.shed.Add(1)
		return nil, false, ErrDraining
	}
	if s.live >= s.cfg.Workers+s.cfg.QueueDepth {
		s.shed.Add(1)
		return nil, false, ErrBusy
	}
	queued := time.Now()
	if s.ledger != nil {
		// Durability before acknowledgement: the accepted record is
		// fsync'd before the client sees the job ID. On failure the job
		// is never created, so there is no acknowledged-but-volatile job
		// and no ghost in the maps or the run queue.
		if lerr := s.ledger.accepted(id, req, opt.Fingerprint(), queued); lerr != nil {
			s.ledgerErrs.Add(1)
			return nil, false, fmt.Errorf("serve: recording job %s in the ledger: %w", id, lerr)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	j = &job{
		id: id, req: req, bench: bench, sys: sys, opt: opt,
		state: StateQueued, queued: queued, fleetEpoch: epoch,
		ctx: ctx, cancel: cancel,
		done: make(chan struct{}),
	}
	s.enqueueLocked(j)
	s.jobs[id] = j
	s.live++
	s.submitted.Add(1)
	if p := s.cfg.Progress; p != nil {
		p.CellsTotal.Add(1)
	}
	return j, true, nil
}

// enqueueLocked appends a queued job to the run queue and wakes one
// idle pool goroutine; callers hold mu.
func (s *Scheduler) enqueueLocked(j *job) {
	s.runq = append(s.runq, j)
	s.wake.Signal()
}

// worker dispatches the run queue's head job, one at a time, until
// Drain has begun and the queue is empty.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		for len(s.runq) == 0 {
			if s.draining {
				return
			}
			s.wake.Wait()
		}
		j := s.runq[0]
		s.runq[0] = nil
		s.runq = s.runq[1:]
		s.replayWait = max(s.replayWait-1, 0)
		s.mu.Unlock()
		s.dispatch(j)
		s.mu.Lock()
	}
}

// dispatch runs one dequeued job's next attempt: pick an executor fault
// domain (avoiding the one that just lost this job's lease), grant a
// lease under a fresh epoch, execute, and deliver the outcome through
// the epoch guard.
func (s *Scheduler) dispatch(j *job) {
	s.mu.Lock()
	if j.state != StateQueued {
		// Canceled (or otherwise settled) while waiting; nothing to run.
		s.mu.Unlock()
		return
	}
	es := s.pickExecutorLocked(j)
	j.exec = es
	j.lastExec = es.name
	j.state = StateRunning
	j.attempt++
	j.epoch++
	epoch := j.epoch
	now := time.Now()
	j.started = now
	j.lastBeat = now
	actx, acancel := context.WithCancel(j.ctx)
	j.attemptCancel = acancel
	s.notifyLocked(j)
	if s.ledger != nil {
		// Advisory: losing a started record costs nothing at recovery —
		// the job replays from accepted and re-runs to the same result.
		if err := s.ledger.started(j.id, j.started); err != nil {
			s.ledgerErrs.Add(1)
		}
	}
	task := &Task{ID: j.id, Attempt: j.attempt, Request: j.req, Fingerprint: j.opt.Fingerprint(), job: j}
	lease := &Lease{s: s, j: j, epoch: epoch}
	exec := es.exec
	firstAttempt := j.attempt == 1
	queuedAt := j.queued
	s.mu.Unlock()

	s.inflight.Add(1)
	if firstAttempt {
		s.waitHist.Observe(now.Sub(queuedAt).Seconds())
	}
	res, err := exec.Execute(actx, task, lease)
	s.inflight.Add(-1)
	acancel()
	s.deliver(j, es, epoch, res, err)
}

// deliver settles one attempt's outcome through the epoch guard: a
// result from a revoked or superseded attempt (the job left running, or
// a newer epoch holds the lease) is discarded, which is what makes
// completion exactly-once under reassignment. A live outcome settles
// the job — done, canceled (the job's own context), reassigned
// (ErrLeaseLost, transient), or failed (everything else, permanent).
func (s *Scheduler) deliver(j *job, es *execState, epoch uint64, res dsmnc.Result, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.state != StateRunning || j.epoch != epoch {
		// Late or duplicate: the watchdog settled the job, the lease was
		// revoked, or a reassigned attempt already answered.
		s.staleResults.Add(1)
		return
	}
	if errors.Is(err, ErrLeaseLost) && context.Cause(j.ctx) != context.Canceled {
		// The executor surrendered the lease (transient infrastructure
		// failure): reassign rather than fail, unless the job itself was
		// canceled — a canceled job is never retried.
		s.leaseLostLocked(j, es, err)
		return
	}
	es.noteDeliveredLocked()
	j.finished = time.Now()
	s.runHist.Observe(j.finished.Sub(j.started).Seconds())
	switch {
	case err == nil:
		j.state = StateDone
		j.res = res
		s.completed.Add(1)
	case context.Cause(j.ctx) == context.Canceled:
		// The job's own context was canceled (Cancel or a forced
		// drain), as opposed to a deadline or a simulation failure.
		j.state = StateCanceled
		j.err = err
		s.canceled.Add(1)
	default:
		j.state = StateFailed
		j.err = err
		s.failed.Add(1)
	}
	s.settleLocked(j)
}

// leaseLostLocked handles one revoked or surrendered lease: cancel the
// attempt (unblocking an executor stuck in it), charge the executor's
// circuit breaker, and either reassign the job with backoff, fail it
// once the retry budget is spent, or — during a drain — settle it
// canceled, as a drain starts no new attempt of a job that lost its
// lease. Callers hold mu; the job is in StateRunning.
func (s *Scheduler) leaseLostLocked(j *job, es *execState, cause error) {
	now := time.Now()
	s.leaseLost.Add(1)
	if j.attemptCancel != nil {
		j.attemptCancel()
	}
	if es != nil && es.noteLostLocked(s.cfg.quarantineAfter, s.cfg.quarantineFor, now) {
		s.quarantined.Add(1)
	}
	j.losses++
	switch {
	case s.draining:
		j.state = StateCanceled
		j.err = context.Canceled
		j.finished = now
		s.canceled.Add(1)
		s.settleLocked(j)
	case j.losses > s.cfg.MaxRetries:
		j.state = StateFailed
		j.err = fmt.Errorf("%w: gave up after %d attempts: %v", ErrLeaseLost, j.attempt, cause)
		j.finished = now
		s.failed.Add(1)
		s.settleLocked(j)
	default:
		j.state = StateQueued
		j.err = nil
		j.started = time.Time{}
		s.reassigned.Add(1)
		if p := s.cfg.Progress; p != nil {
			p.CellsRetried.Add(1)
		}
		if s.ledger != nil {
			if lerr := s.ledger.reassigned(j.id, j.losses, now); lerr != nil {
				s.ledgerErrs.Add(1)
			}
		}
		s.notifyLocked(j)
		s.scheduleRetryLocked(j)
	}
}

// scheduleRetryLocked re-appends a reassigned job to the run queue
// after its backoff: exponential in consecutive losses,
// deterministically jittered by the seeded RNG; zero appends at once.
// Drain cancels the jobs still waiting. Callers hold mu.
func (s *Scheduler) scheduleRetryLocked(j *job) {
	delay := retryDelay(s.cfg.retryBackoff, maxRetryBackoff, j.losses, s.retryRNG)
	if delay <= 0 {
		s.enqueueLocked(j)
		return
	}
	j.backoff = time.AfterFunc(delay, func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		j.backoff = nil
		if j.state == StateQueued && !s.draining {
			s.enqueueLocked(j)
		}
	})
}

// settleLocked finalizes a job that just reached a terminal state:
// progress accounting, subscriber notification, done signal, and
// eviction of the oldest finished jobs beyond the KeepResults bound.
// Callers hold mu and have set state/finished already.
func (s *Scheduler) settleLocked(j *job) {
	if p := s.cfg.Progress; p != nil {
		p.CellsDone.Add(1)
		if j.state == StateFailed {
			p.CellsFailed.Add(1)
		}
	}
	s.live--
	j.cancel() // release the context's resources
	if j.backoff != nil {
		j.backoff.Stop()
		j.backoff = nil
	}
	s.notifyLocked(j)
	for _, ch := range j.subs {
		close(ch)
	}
	j.subs = nil
	close(j.done)

	if s.ledger != nil {
		var res *dsmnc.Result
		if j.state == StateDone {
			r := j.res
			res = &r
		}
		errMsg := ""
		if j.err != nil {
			errMsg = j.err.Error()
		}
		if err := s.ledger.terminal(j.id, j.state, errMsg, res, j.finished); err != nil {
			s.ledgerErrs.Add(1)
		}
		s.terminalSince++
	}

	s.doneOrder = append(s.doneOrder, j.id)
	s.evictLocked()

	if s.ledger != nil && s.terminalSince >= s.cfg.CompactEvery {
		s.terminalSince = 0
		s.compactLedgerLocked()
	}
}

// evictLocked drops the oldest finished jobs beyond the KeepResults
// bound; callers hold mu.
func (s *Scheduler) evictLocked() {
	for len(s.doneOrder) > s.cfg.KeepResults {
		delete(s.jobs, s.doneOrder[0])
		s.doneOrder = s.doneOrder[1:]
	}
}

// compactLedgerLocked rewrites the ledger to just the live jobs'
// records, so its size tracks the KeepResults bound instead of history.
// Callers hold mu; a failed compaction is counted and the append-only
// file simply keeps growing until the next attempt.
func (s *Scheduler) compactLedgerLocked() {
	live := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		live = append(live, j)
	}
	sort.Slice(live, func(i, k int) bool {
		if !live[i].queued.Equal(live[k].queued) {
			return live[i].queued.Before(live[k].queued)
		}
		return live[i].id < live[k].id
	})
	recs := make([]ledgerRecord, 0, 2*len(live))
	for _, j := range live {
		req := j.req
		recs = append(recs, ledgerRecord{
			Kind: recAccepted, ID: j.id, Time: j.queued,
			Request: &req, Fingerprint: j.opt.Fingerprint(),
		})
		if !j.started.IsZero() {
			recs = append(recs, ledgerRecord{Kind: recStarted, ID: j.id, Time: j.started})
		}
		if j.losses > 0 && !j.state.Terminal() {
			// Preserve the spent retry budget across the rewrite.
			recs = append(recs, ledgerRecord{Kind: recReassigned, ID: j.id, Time: j.queued, Attempt: j.losses})
		}
		if j.state.Terminal() {
			rec := ledgerRecord{Kind: recTerminal, ID: j.id, Time: j.finished, State: j.state}
			if j.err != nil {
				rec.Error = j.err.Error()
			}
			if j.state == StateDone {
				r := j.res
				rec.Result = &r
			}
			recs = append(recs, rec)
		}
	}
	if err := s.ledger.compact(recs); err != nil {
		s.ledgerErrs.Add(1)
	}
}

// notifyLocked pushes the job's current status to its watchers; the
// channel capacity covers every possible transition (watchCapacity), so
// the send never blocks.
func (s *Scheduler) notifyLocked(j *job) {
	st := j.statusLocked()
	for _, ch := range j.subs {
		select {
		case ch <- st:
		default: // watcher fell behind; it will still see the close
		}
	}
}

// Status returns a job's current status.
func (s *Scheduler) Status(id string) (Status, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Status{}, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	return j.statusLocked(), nil
}

// Result returns a job's result. The Result value is only meaningful
// when the returned status is StateDone; a live or unsuccessful job
// returns its status with a zero Result.
func (s *Scheduler) Result(id string) (dsmnc.Result, Status, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return dsmnc.Result{}, Status{}, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	return j.res, j.statusLocked(), nil
}

// Wait blocks until the job reaches a terminal state (or ctx ends) and
// returns that final status.
func (s *Scheduler) Wait(ctx context.Context, id string) (Status, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return Status{}, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	select {
	case <-j.done:
		return s.Status(id)
	case <-ctx.Done():
		return Status{}, ctx.Err()
	}
}

// watchCapacity sizes a watcher's channel to the worst-case transition
// count of one job lifetime: the initial snapshot, then per attempt one
// running notification and one requeue notification (a lease loss moves
// the job back to queued), then the terminal status — 2×(MaxRetries+1)
// notifications after the snapshot, plus one slot of headroom.
func (s *Scheduler) watchCapacity() int {
	return 2*(s.cfg.MaxRetries+1) + 2
}

// Watch returns a channel of the job's status updates: its current
// status immediately, then one per transition; the channel closes after
// the terminal status is delivered. The HTTP stream endpoint is a thin
// rendering of it.
func (s *Scheduler) Watch(id string) (<-chan Status, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	// Capacity covers the initial status plus every remaining
	// transition — including the Queued→Running→Queued cycles retries
	// add — so notifyLocked never drops for a draining reader.
	ch := make(chan Status, s.watchCapacity())
	ch <- j.statusLocked()
	if j.state.Terminal() {
		close(ch)
		return ch, nil
	}
	j.subs = append(j.subs, ch)
	return ch, nil
}

// Cancel stops a job: a queued job settles immediately as canceled, a
// running one has its context canceled and settles when the engine
// notices (it polls off the hot path). Cancelling a terminal job is a
// no-op.
func (s *Scheduler) Cancel(id string) (Status, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Status{}, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	s.cancelLocked(j)
	return j.statusLocked(), nil
}

// cancelLocked is Cancel for a job already in hand; callers hold mu.
func (s *Scheduler) cancelLocked(j *job) {
	switch j.state {
	case StateQueued:
		j.state = StateCanceled
		j.err = context.Canceled
		j.finished = time.Now()
		s.canceled.Add(1)
		s.settleLocked(j)
	case StateRunning:
		j.cancel()
	}
}

// Drain shuts the scheduler down gracefully: intake stops (submissions
// shed with ErrDraining), jobs waiting out a reassignment backoff settle
// canceled, queued and running jobs are given until ctx ends to finish,
// then the stragglers are canceled and awaited. When Drain returns,
// every job is settled and every goroutine — workers, monitor — has
// exited; the error is ctx's if the deadline forced cancellations.
func (s *Scheduler) Drain(ctx context.Context) error {
	s.mu.Lock()
	wasDraining := s.draining
	if !wasDraining {
		s.draining = true
		for _, j := range s.jobs {
			if j.backoff != nil {
				s.cancelLocked(j) // settling stops the timer
			}
		}
		// Idle pool goroutines wake to run what is queued, then exit.
		s.wake.Broadcast()
	}
	s.mu.Unlock()

	settled := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(settled)
	}()
	var err error
	select {
	case <-settled:
	case <-ctx.Done():
		// Deadline: cancel everything still live. Queued jobs settle
		// here; running ones settle in their worker as the engine
		// observes the canceled context.
		s.mu.Lock()
		for _, j := range s.jobs {
			s.cancelLocked(j)
		}
		s.mu.Unlock()
		<-settled
		err = ctx.Err()
	}
	if !wasDraining {
		// The monitor outlives the workers: an executor blocked on a
		// dead attempt is unblocked by lease revocation, which is what
		// lets wg.Wait() finish. Only then is there nothing left to
		// supervise.
		close(s.stopMonitor)
		<-s.monitorDone
		if s.ledger != nil {
			// Every transition is already fsync'd; closing just releases
			// the file handle.
			_ = s.ledger.Close()
		}
	}
	return err
}

// Draining reports whether the scheduler has stopped accepting work.
func (s *Scheduler) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// QueueDepth returns the number of admitted jobs beyond what the pool
// runs at once — queued plus running jobs, less Workers — and its bound,
// which exact admission never lets the depth pass.
func (s *Scheduler) QueueDepth() (depth, capacity int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return max(s.live-s.cfg.Workers, 0), s.cfg.QueueDepth
}

// RetryAfter estimates how long a shed client should wait before
// retrying: the time for enough queue positions to drain at the
// observed throughput — queue depth × mean run latency ÷ capacity —
// ceiled to whole seconds and clamped to [1s, 60s]. Capacity is the
// real parallelism bound: the dispatch pool, capped by the fleet-wide
// worker slot total when remote executors have reported one — a
// 64-goroutine pool over two 4-slot nodes drains 8 cells at a time,
// not 64. Before any run has completed the mean is zero and the floor
// answers. The HTTP binding renders it as the Retry-After of every 429.
func (s *Scheduler) RetryAfter() time.Duration {
	depth, _ := s.QueueDepth()
	capacity := s.cfg.Workers
	if fleet := s.fleetSlots(); fleet > 0 && fleet < capacity {
		capacity = fleet
	}
	return retryAfter(depth, capacity, s.runHist.Mean())
}

// retryAfter is the pure estimate behind RetryAfter.
func retryAfter(depth, workers int, meanRunSeconds float64) time.Duration {
	if workers < 1 {
		workers = 1
	}
	secs := math.Ceil(float64(depth) * meanRunSeconds / float64(workers))
	if !(secs >= 1) { // catches NaN as well as the sub-second estimate
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return time.Duration(secs) * time.Second
}
