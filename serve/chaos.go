package serve

// The deterministic chaos harness, in the spirit of internal/fault: a
// ChaosExecutor wraps a real executor and, from a seeded RNG, injects
// the failure modes a distributed executor fabric must survive — crash
// (the attempt dies without a word), stall (heartbeats then silence),
// slow (alive and renewing, just late: slow must NOT be treated as
// dead), drop-result (the work finished but the answer never arrived),
// and late-duplicate-result (a revoked attempt answers after its job
// was reassigned, which the epoch guard must discard). TestChaosTorture
// (make chaos-smoke) soaks the scheduler under sustained injection and
// requires zero lost acknowledged jobs, zero duplicate completions, and
// results field-identical to the golden corpus.

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"dsmnc"
)

// ChaosKind names one injected failure mode.
type ChaosKind int

// The five injected failure modes.
const (
	// ChaosCrash kills the attempt outright: no heartbeats, no result,
	// just silence until the lease is revoked.
	ChaosCrash ChaosKind = iota
	// ChaosStall heartbeats a few times and then goes silent — the
	// worker was alive and then wedged.
	ChaosStall
	// ChaosSlow completes the work late while renewing the lease the
	// whole time: the scheduler must treat it as alive, not dead.
	ChaosSlow
	// ChaosDrop completes the work but loses the answer: heartbeats
	// stop and the computed result is discarded.
	ChaosDrop
	// ChaosDup holds a computed result until after the lease is
	// revoked and the job reassigned, then returns it stale — the
	// exactly-once check.
	ChaosDup

	chaosKinds // count, for the default kind set
)

// String names the fault kind.
func (k ChaosKind) String() string {
	switch k {
	case ChaosCrash:
		return "crash"
	case ChaosStall:
		return "stall"
	case ChaosSlow:
		return "slow"
	case ChaosDrop:
		return "drop-result"
	case ChaosDup:
		return "late-duplicate"
	default:
		return fmt.Sprintf("ChaosKind(%d)", int(k))
	}
}

// ChaosConfig tunes the injector. The zero value (plus a Seed) injects
// every kind at rate 0.5.
type ChaosConfig struct {
	// Seed drives the injection RNG; a fixed seed yields a
	// reproducible draw sequence.
	Seed int64
	// Rate is the per-attempt injection probability in [0,1];
	// 0 means 0.5.
	Rate float64
	// Kinds restricts which faults are injected; nil means all five.
	Kinds []ChaosKind
	// StallBeats is how many heartbeats a stall sends before going
	// silent; 0 means 2.
	StallBeats int
	// SlowBy is how late a slow attempt answers; 0 means twice the
	// lease TTL (or 50ms when leases are disabled).
	SlowBy time.Duration
}

// ChaosExecutor injects seeded faults in front of an inner executor.
// Attempts that dodge the injection run through untouched. Safe for the
// concurrent use the worker pool makes of it.
type ChaosExecutor struct {
	inner Executor
	cfg   ChaosConfig

	mu       sync.Mutex
	rng      *rand.Rand
	injected [chaosKinds]int64
}

// NewChaosExecutor wraps inner with the fault injector. Test only: it
// exists so the chaos suite (serve/chaos_test.go) can prove the lease
// fabric against every failure mode on demand.
func NewChaosExecutor(inner Executor, cfg ChaosConfig) *ChaosExecutor {
	if cfg.Rate == 0 {
		cfg.Rate = 0.5
	}
	if len(cfg.Kinds) == 0 {
		cfg.Kinds = []ChaosKind{ChaosCrash, ChaosStall, ChaosSlow, ChaosDrop, ChaosDup}
	}
	if cfg.StallBeats <= 0 {
		cfg.StallBeats = 2
	}
	return &ChaosExecutor{inner: inner, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Name reports the wrapped executor's fault-domain name.
func (c *ChaosExecutor) Name() string { return c.inner.Name() }

// bind forwards the scheduler to the wrapped executor.
func (c *ChaosExecutor) bind(s *Scheduler) {
	if b, ok := c.inner.(schedulerBound); ok {
		b.bind(s)
	}
}

// Injected returns how many faults of each kind have been injected.
func (c *ChaosExecutor) Injected() map[ChaosKind]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[ChaosKind]int64, int(chaosKinds))
	for k, n := range c.injected {
		if n > 0 {
			out[ChaosKind(k)] = n
		}
	}
	return out
}

// draw decides, from the seeded RNG, whether this attempt is sabotaged
// and how.
func (c *ChaosExecutor) draw() (ChaosKind, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.rng.Float64() >= c.cfg.Rate {
		return 0, false
	}
	k := c.cfg.Kinds[c.rng.Intn(len(c.cfg.Kinds))]
	c.injected[k]++
	return k, true
}

// Execute runs one attempt, possibly through an injected fault.
func (c *ChaosExecutor) Execute(ctx context.Context, task *Task, lease *Lease) (dsmnc.Result, error) {
	kind, inject := c.draw()
	if !inject {
		return c.inner.Execute(ctx, task, lease)
	}
	switch kind {
	case ChaosCrash:
		// Sudden death: no heartbeats, no answer. Wait out the
		// revocation so the worker slot is held exactly as a hung
		// remote call would hold it.
		<-ctx.Done()
		return dsmnc.Result{}, fmt.Errorf("%w: injected crash (attempt %d)", ErrLeaseLost, task.Attempt)
	case ChaosStall:
		// Alive, then wedged: a few renewals, then silence until the
		// monitor revokes the lease.
		every := lease.heartbeatEvery()
		if every <= 0 {
			every = 5 * time.Millisecond
		}
		for i := 0; i < c.cfg.StallBeats; i++ {
			if !chaosSleep(ctx, every) {
				break
			}
			lease.Heartbeat()
		}
		<-ctx.Done()
		return dsmnc.Result{}, fmt.Errorf("%w: injected stall (attempt %d)", ErrLeaseLost, task.Attempt)
	case ChaosSlow:
		// Late but alive: finish the work, then sit on the answer while
		// dutifully renewing the lease. Slow is not dead — the
		// scheduler must not revoke this one.
		res, err := c.inner.Execute(ctx, task, lease)
		slowBy := c.cfg.SlowBy
		if slowBy <= 0 {
			slowBy = 2 * lease.TTL()
			if slowBy <= 0 {
				slowBy = 50 * time.Millisecond
			}
		}
		every := lease.heartbeatEvery()
		if every <= 0 || every > slowBy {
			every = slowBy
		}
		deadline := time.Now().Add(slowBy)
		for time.Now().Before(deadline) {
			if !chaosSleep(ctx, every) {
				break
			}
			lease.Heartbeat()
		}
		return res, err
	case ChaosDrop:
		// The work happened; the answer evaporated. Heartbeats stop
		// with the computation done, so the lease expires and the
		// scheduler re-runs the job elsewhere.
		_, _ = c.inner.Execute(ctx, task, lease)
		<-ctx.Done()
		return dsmnc.Result{}, fmt.Errorf("%w: injected result drop (attempt %d)", ErrLeaseLost, task.Attempt)
	default: // ChaosDup
		// Exactly-once probe: compute the real result, hold it past
		// revocation and reassignment, then return it stale with no
		// error — the epoch guard must discard it, or the job would
		// complete twice.
		res, _ := c.inner.Execute(ctx, task, lease)
		<-ctx.Done()
		return res, nil
	}
}

// chaosSleep waits d unless ctx ends first; it reports whether the full
// wait elapsed.
func chaosSleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
