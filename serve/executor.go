package serve

// The executor fabric: execution sits behind a transport-shaped
// Executor interface, and every attempt runs under a lease the executor
// must heartbeat-renew. A lease that expires without renewal — worker
// crash, stall, dropped result — is revoked by the scheduler's monitor
// and the job is reassigned with a bounded retry budget, exponential
// backoff and deterministic seeded jitter, the same transient/permanent
// split the sweep retries use (ErrLeaseLost is transient; engine and
// config errors are permanent). Executors are fault domains: a circuit
// breaker quarantines one after K consecutive lease losses and the
// scheduler keeps serving on the healthy remainder, reporting
// "degraded" through Readiness until the quarantine lifts.
//
// The in-process implementation is Local(): it runs the cell engine on
// the scheduler's own worker pool, heartbeating from a sidecar ticker
// so a live computation of any length keeps its lease. The remote
// transport (RemoteExecutor, remote.go) implements the same surface —
// Execute with a lease to renew and a context that means "the
// scheduler gave up on you" — and inherits failure detection, retries
// and the chaos proof without touching the scheduler.

import (
	"context"
	"math/rand"
	"time"

	"dsmnc"
)

// Task is one attempt of one job as an executor sees it: the job's
// idempotent identity, which attempt this is (1-based; it grows only
// when a lease is lost and the job reassigned), and the canonical
// request a remote executor would recompile. For local executors the
// task also carries the compiled inputs.
type Task struct {
	ID      string  `json:"id"`
	Attempt int     `json:"attempt"`
	Request Request `json:"request"`
	// Fingerprint is the coordinator's options fingerprint for this
	// job — the identity half a remote worker verifies by recompiling
	// Request against its own base options.
	Fingerprint string `json:"fingerprint"`

	// job is the local fast path: the scheduler's own record with the
	// compiled bench/system/options. A remote transport serializes
	// Request instead and leaves it nil.
	job *job
}

// Executor is one execution fault domain. Execute runs one attempt of
// one task to completion and returns its result. The context is the
// attempt's lease context: it is canceled when the lease is revoked
// (the scheduler gave up on this attempt and is reassigning or failing
// the job) or when the job itself is canceled — Execute should abandon
// work and return promptly. While working, the executor must renew the
// lease via lease.Heartbeat() more often than lease.TTL(), or the
// scheduler will revoke the lease and reassign the job to another
// executor. A transient infrastructure failure (lost worker, dropped
// connection) should be returned as an ErrLeaseLost-wrapped error so
// the scheduler reassigns; any other error is permanent and fails the
// job.
type Executor interface {
	// Name identifies the fault domain in statuses, readiness and logs.
	Name() string
	Execute(ctx context.Context, task *Task, lease *Lease) (dsmnc.Result, error)
}

// schedulerBound is implemented by executors that need the owning
// scheduler (the local pool executor); New binds them before the
// workers start.
type schedulerBound interface {
	bind(s *Scheduler)
}

// Lease is the scheduler's grant of one attempt of one job to one
// executor. Heartbeat renews it; the scheduler's monitor revokes a
// lease whose last renewal is older than the TTL.
type Lease struct {
	s     *Scheduler
	j     *job
	epoch uint64
}

// TTL returns how long the lease may go without a heartbeat before the
// scheduler revokes it; 0 means leases are disabled and the attempt
// runs unleased (the watchdog is then the only supervisor).
func (l *Lease) TTL() time.Duration { return l.s.cfg.LeaseTTL }

// Heartbeat renews the lease. It returns false once the lease is no
// longer current — revoked, reassigned, or the job settled — at which
// point the executor should abandon the attempt (its context is
// canceled at the same moment).
func (l *Lease) Heartbeat() bool {
	l.s.mu.Lock()
	defer l.s.mu.Unlock()
	if l.j.state != StateRunning || l.j.epoch != l.epoch {
		return false
	}
	l.j.lastBeat = time.Now()
	return true
}

// heartbeatEvery is the renewal cadence local executors use: a quarter
// of the TTL, so three beats can be lost to scheduling noise before the
// lease actually expires.
func (l *Lease) heartbeatEvery() time.Duration {
	ttl := l.TTL()
	if ttl <= 0 {
		return 0
	}
	every := ttl / 4
	if every < time.Millisecond {
		every = time.Millisecond
	}
	return every
}

// Local returns the in-process executor: it runs the cell engine on the
// calling worker goroutine's slot, with a sidecar ticker renewing the
// lease for as long as the engine is genuinely computing. The name
// labels the fault domain in statuses and readiness.
func Local(name string) Executor {
	return &localExecutor{name: name}
}

// localExecutor wraps today's goroutine pool as a fault domain.
type localExecutor struct {
	name string
	s    *Scheduler
}

func (e *localExecutor) bind(s *Scheduler) { e.s = s }

func (e *localExecutor) Name() string { return e.name }

// Execute runs the engine in a goroutine and heartbeats until it
// returns. It waits for the engine unconditionally — a wedged engine
// holds this pool slot exactly as it did pre-fabric, and the watchdog
// (not the lease) is the mechanism that settles its job.
func (e *localExecutor) Execute(ctx context.Context, t *Task, lease *Lease) (dsmnc.Result, error) {
	type outcome struct {
		res dsmnc.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := e.s.runFn(ctx, t.job)
		done <- outcome{res, err}
	}()
	every := lease.heartbeatEvery()
	if every <= 0 {
		o := <-done
		return o.res, o.err
	}
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case o := <-done:
			return o.res, o.err
		case <-tick.C:
			lease.Heartbeat()
		}
	}
}

// execState is the scheduler's health record for one executor: the
// circuit breaker's consecutive-loss count, the quarantine window, and
// lifetime counters. Guarded by the scheduler's mu.
type execState struct {
	exec        Executor
	name        string
	consecutive int       // lease losses since the last delivered outcome
	quarantined bool      // circuit open
	until       time.Time // quarantine expiry; after it the executor gets a probe
	lost        int64     // lifetime lease losses
	delivered   int64     // lifetime delivered outcomes (any terminal kind)
}

// healthyLocked reports whether the executor should receive work: not
// quarantined, or quarantined long enough that it has earned a
// half-open probe.
func (es *execState) healthyLocked(now time.Time) bool {
	return !es.quarantined || now.After(es.until)
}

// noteDeliveredLocked records a completed round trip: whatever the
// outcome, the executor answered, so the breaker's consecutive-loss
// count resets and an open circuit closes.
func (es *execState) noteDeliveredLocked() {
	es.delivered++
	es.consecutive = 0
	es.quarantined = false
	es.until = time.Time{}
}

// noteLostLocked records a lease loss and trips the breaker at K
// consecutive losses (re-arming the window if a half-open probe fails
// again). It reports whether this loss newly opened (or re-armed) the
// quarantine.
func (es *execState) noteLostLocked(k int, quarantineFor time.Duration, now time.Time) bool {
	es.lost++
	es.consecutive++
	if k <= 0 || es.consecutive < k {
		return false
	}
	es.quarantined = true
	es.until = now.Add(quarantineFor)
	return true
}

// pickExecutorLocked chooses the fault domain for a dispatch: healthy
// executors first, preferring one other than the domain that just lost
// the job's lease (avoid = j.lastExec). Candidates are walked in the
// job ID's consistent-hash ring order, so duplicate submissions land
// on the same node and a join/leave moves only ~1/N of the
// fingerprints. When every executor is quarantined the scheduler still
// serves — availability over purity — on the one whose quarantine
// expires soonest.
func (s *Scheduler) pickExecutorLocked(j *job) *execState {
	now := time.Now()
	avoid := j.lastExec
	order := s.ring.order(j.id)
	pick := func(allowAvoid bool) *execState {
		for _, name := range order {
			es := s.execByName[name]
			if !es.healthyLocked(now) {
				continue
			}
			if !allowAvoid && len(order) > 1 && name == avoid {
				continue
			}
			return es
		}
		return nil
	}
	if es := pick(false); es != nil {
		return es
	}
	if es := pick(true); es != nil {
		return es
	}
	best := s.execs[0]
	for _, es := range s.execs[1:] {
		if es.until.Before(best.until) {
			best = es
		}
	}
	return best
}

// slotsReporter is implemented by executors that know their node's
// slot capacity (RemoteExecutor, from its readiness probe); the
// scheduler sums these into the fleet-wide capacity behind RetryAfter.
type slotsReporter interface {
	Slots() int
}

// fleetSlots sums the probed slot capacity of every slot-reporting
// executor; 0 when no executor reports (an all-local fleet, or probes
// that have not answered yet).
func (s *Scheduler) fleetSlots() int {
	total := 0
	for _, es := range s.execs {
		if sr, ok := es.exec.(slotsReporter); ok {
			if n := sr.Slots(); n > 0 {
				total += n
			}
		}
	}
	return total
}

// retryDelay computes the backoff before a reassigned job re-enters the
// queue: exponential in the number of lease losses, jittered over
// [d/2, d] by the scheduler's RNG, whose fixed seed makes the schedule
// reproducible, capped at maxDelay.
func retryDelay(base, maxDelay time.Duration, losses int, rng *rand.Rand) time.Duration {
	if base <= 0 {
		return 0
	}
	d := base
	for i := 1; i < losses && d < maxDelay; i++ {
		d *= 2
	}
	if d > maxDelay {
		d = maxDelay
	}
	half := d / 2
	return half + time.Duration(rng.Int63n(int64(half)+1))
}

// ExecutorHealth is one fault domain's account in Readiness.
type ExecutorHealth struct {
	Name            string    `json:"name"`
	Quarantined     bool      `json:"quarantined"`
	QuarantineUntil time.Time `json:"quarantine_until,omitzero"`
	ConsecutiveLost int       `json:"consecutive_lost,omitempty"`
	LeasesLost      int64     `json:"leases_lost,omitempty"`
	Delivered       int64     `json:"delivered,omitempty"`
}

// Readiness is the scheduler's readiness account, the substance behind
// an HTTP /readyz: Ready says whether fresh traffic should be routed
// here, Reason says why not (or how well) — "ok", "degraded" (serving,
// but at least one executor is quarantined), "recovering" (more
// replayed ledger jobs still wait in the run queue than its admission
// bound holds), "draining", or "quarantined" (every executor's circuit
// is open).
type Readiness struct {
	Ready     bool             `json:"ready"`
	Reason    string           `json:"reason"`
	Executors []ExecutorHealth `json:"executors,omitempty"`
}

// Readiness reports whether the scheduler should receive fresh traffic
// and the health of each executor fault domain. Liveness is not its
// business: a draining or recovering scheduler is alive but not ready.
func (s *Scheduler) Readiness() Readiness {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := time.Now()
	r := Readiness{Executors: make([]ExecutorHealth, 0, len(s.execs))}
	healthy := 0
	quarantined := 0
	for _, es := range s.execs {
		if es.healthyLocked(now) {
			healthy++
		}
		if es.quarantined {
			quarantined++
		}
		r.Executors = append(r.Executors, ExecutorHealth{
			Name:            es.name,
			Quarantined:     es.quarantined,
			QuarantineUntil: es.until,
			ConsecutiveLost: es.consecutive,
			LeasesLost:      es.lost,
			Delivered:       es.delivered,
		})
	}
	switch {
	case s.draining:
		r.Reason = "draining"
	case !s.recoveredLocked():
		r.Reason = "recovering"
	case healthy == 0:
		r.Reason = "quarantined"
	case quarantined > 0:
		r.Ready, r.Reason = true, "degraded"
	default:
		r.Ready, r.Reason = true, "ok"
	}
	return r
}
