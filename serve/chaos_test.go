package serve

// The chaos gate (make chaos-smoke, run race-instrumented): soak the
// scheduler under sustained seeded fault injection and require the
// fabric's contract: zero lost acknowledged jobs, zero duplicate
// completions, the breaker quarantining a rotten executor while the
// rest keep serving, a shed (never a hang) when the pool is saturated,
// and served results field-identical to the golden corpus even when
// every cell may be crashed, stalled or duplicated en route.
//
// The injector is a ChaosExecutor: it wraps a real executor and, from a
// seeded RNG, injects the failure modes a distributed executor fabric
// must survive — crash (the attempt dies without a word), stall
// (heartbeats then silence), slow (alive and renewing, just late: slow
// must NOT be treated as dead), drop-result (the work finished but the
// answer never arrived), and late-duplicate-result (a revoked attempt
// answers after its job was reassigned, which the epoch guard must
// discard).

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"dsmnc"
	"dsmnc/stats"
)

func TestChaosTorture(t *testing.T) {
	t.Run("soak", testChaosSoak)
	t.Run("quarantine", testChaosQuarantine)
	t.Run("availability", testChaosAvailability)
	t.Run("golden", testChaosGolden)
}

// testChaosSoak: 120 jobs through two chaos-wrapped executors at 60%
// injection with the breaker off, so every fault kind lands repeatedly.
// Every job must complete exactly once; every revoked attempt's late
// return must be discarded.
func testChaosSoak(t *testing.T) {
	before := runtime.NumGoroutine()
	fr := newFakeRunner(nil, 0)
	chaosA := NewChaosExecutor(Local("chaos-0"), ChaosConfig{Seed: 1, Rate: 0.6})
	chaosB := NewChaosExecutor(Local("chaos-1"), ChaosConfig{Seed: 2, Rate: 0.6})
	s := mustScheduler(t, Config{
		Workers: 4, QueueDepth: 256, KeepResults: 1 << 16,
		LeaseTTL: 40 * time.Millisecond, retryBackoff: time.Millisecond,
		MaxRetries: 12, quarantineAfter: -1,
		Executors: []Executor{chaosA, chaosB},
		runFn:     fr.run,
	})

	const jobs = 120
	ids := make([]string, 0, jobs)
	for n := 0; n < jobs; n++ {
		st, err := s.Submit(req(n))
		if err != nil {
			t.Fatalf("submit %d: %v", n, err)
		}
		ids = append(ids, st.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	for _, id := range ids {
		st, err := s.Wait(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateDone {
			t.Fatalf("job %s finished %s (%s) — an acknowledged job was lost to injection", id, st.State, st.Error)
		}
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Exactly-once: the completion counter equals the job count — no
	// duplicate completion slipped past the epoch guard.
	if got := s.completed.Load(); got != jobs {
		t.Errorf("completed = %d, want exactly %d", got, jobs)
	}
	if got := s.failed.Load() + s.canceled.Load(); got != 0 {
		t.Errorf("%d jobs failed or canceled under injection, want 0", got)
	}
	// The harness must actually have exercised every fault kind.
	injected := map[ChaosKind]int64{}
	for _, c := range []*ChaosExecutor{chaosA, chaosB} {
		for k, n := range c.Injected() {
			injected[k] += n
		}
	}
	for k := ChaosKind(0); k < chaosKinds; k++ {
		if injected[k] == 0 {
			t.Errorf("fault kind %s was never injected; the soak proves less than it claims", k)
		}
	}
	if got := s.leaseLost.Load(); got == 0 {
		t.Error("no lease was ever lost under 60% injection")
	}
	if got := s.reassigned.Load(); got == 0 {
		t.Error("no job was ever reassigned under 60% injection")
	}
	if got := s.staleResults.Load(); got == 0 {
		t.Error("no late return was ever discarded; the dup/crash kinds did not exercise the epoch guard")
	}
	t.Logf("soak: %d jobs, %v injected, %d leases lost, %d reassignments, %d stale returns discarded",
		jobs, injected, s.leaseLost.Load(), s.reassigned.Load(), s.staleResults.Load())
	checkNoGoroutineLeak(t, before)
}

// testChaosQuarantine: an executor that crashes every attempt trips the
// breaker after two consecutive losses; the scheduler keeps completing
// jobs on the clean domain and reports itself degraded-but-ready.
func testChaosQuarantine(t *testing.T) {
	fr := newFakeRunner(nil, 0)
	rotten := NewChaosExecutor(Local("rotten"), ChaosConfig{
		Seed: 5, Rate: 1, Kinds: []ChaosKind{ChaosCrash},
	})
	s := mustScheduler(t, Config{
		Workers: 2, LeaseTTL: 30 * time.Millisecond,
		retryBackoff: -1, MaxRetries: 5,
		quarantineAfter: 2, quarantineFor: time.Hour,
		Executors: []Executor{rotten, Local("clean")},
		runFn:     fr.run,
	})
	defer s.Drain(context.Background())

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	submitAll := func(reqs []Request) {
		t.Helper()
		for n, r := range reqs {
			st, err := s.Submit(r)
			if err != nil {
				t.Fatalf("submit %d: %v", n, err)
			}
			if st, err := s.Wait(ctx, st.ID); err != nil || st.State != StateDone {
				t.Fatalf("job %d under a rotten executor: %v / %v, want done on the clean one", n, st, err)
			}
		}
	}
	// Every job of the first wave homes on rotten, so its breaker sees
	// quarantineAfter consecutive losses by construction.
	submitAll(reqsHomedOn(t, s, "rotten", 2))
	if got := s.quarantined.Load(); got < 1 {
		t.Fatalf("breaker never tripped: quarantined = %d", got)
	}
	rd := s.Readiness()
	if !rd.Ready || rd.Reason != "degraded" {
		t.Errorf("readiness = %v %q, want ready and degraded", rd.Ready, rd.Reason)
	}
	var rottenHealth *ExecutorHealth
	for i := range rd.Executors {
		if rd.Executors[i].Name == "rotten" {
			rottenHealth = &rd.Executors[i]
		}
	}
	if rottenHealth == nil || !rottenHealth.Quarantined || rottenHealth.LeasesLost < 2 {
		t.Errorf("rotten executor's account %+v does not show the quarantine", rottenHealth)
	}
	// Post-quarantine traffic routes straight to the clean domain.
	lostBefore := s.leaseLost.Load()
	var fresh []Request
	for n := 8; n < 16; n++ {
		fresh = append(fresh, req(n))
	}
	submitAll(fresh)
	if got := s.leaseLost.Load(); got != lostBefore {
		t.Errorf("quarantined executor still lost %d leases on fresh traffic", got-lostBefore)
	}
}

// testChaosAvailability: with one executor quarantined and the pool
// saturated, submissions shed promptly with ErrBusy (the HTTP binding's
// 429 + Retry-After) — degraded means slower, never a hang.
func testChaosAvailability(t *testing.T) {
	gate := make(chan struct{})
	fr := newFakeRunner(gate, 0)
	rotten := NewChaosExecutor(Local("rotten"), ChaosConfig{
		Seed: 9, Rate: 1, Kinds: []ChaosKind{ChaosCrash},
	})
	s := mustScheduler(t, Config{
		Workers: 1, QueueDepth: 1, LeaseTTL: 30 * time.Millisecond,
		retryBackoff: -1, MaxRetries: 3,
		quarantineAfter: 1, quarantineFor: time.Hour,
		Executors: []Executor{rotten, Local("clean")},
		runFn:     fr.run,
	})
	defer func() {
		close(gate)
		if err := s.Drain(context.Background()); err != nil {
			t.Error(err)
		}
	}()

	// Job A's first attempt crashes on the rotten executor (quarantining
	// it), then its reassignment occupies the lone worker against the
	// gate.
	a, err := s.Submit(reqsHomedOn(t, s, "rotten", 1)[0])
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := s.Status(a.ID)
		if err != nil {
			t.Fatal(err)
		}
		if s.quarantined.Load() >= 1 && st.State == StateRunning && st.Executor == "clean" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never reached the clean executor: %+v, %d trips", st, s.quarantined.Load())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, err := s.Submit(req(1)); err != nil { // fills the 1-deep queue
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := s.Submit(req(2)); !errors.Is(err, ErrBusy) {
		t.Fatalf("saturated submit: err = %v, want ErrBusy", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("shed took %v; a full queue must answer immediately", elapsed)
	}
	if ra := s.RetryAfter(); ra < time.Second {
		t.Errorf("RetryAfter = %v, want >= 1s", ra)
	}
	rd := s.Readiness()
	if !rd.Ready || rd.Reason != "degraded" {
		t.Errorf("readiness while saturated = %v %q, want ready and degraded", rd.Ready, rd.Reason)
	}
}

// reqsHomedOn returns the first k distinct req(n), n >= 1000, whose
// ring home under s is the named executor, so a test can aim jobs at
// one domain. The high n keeps them clear of the low-numbered requests
// tests submit.
func reqsHomedOn(t *testing.T, s *Scheduler, name string, k int) []Request {
	t.Helper()
	var out []Request
	for n := 1000; n < 2000 && len(out) < k; n++ {
		if id, _ := idFor(t, s, req(n)); s.ring.order(id)[0] == name {
			out = append(out, req(n))
		}
	}
	if len(out) < k {
		t.Fatalf("only %d of %d req(n) in [1000, 2000) home on %q", len(out), k, name)
	}
	return out
}

// testChaosGolden: the determinism contract under injection — four
// golden corpus cells run through the real engine behind chaos-wrapped
// executors, and every served result must remain field-identical to the
// committed golden file. Reassignment re-runs the simulation; the
// engine's determinism makes the retry invisible.
func testChaosGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the real engine under injection; skipped under -short")
	}
	s := mustScheduler(t, Config{
		Workers: 4, QueueDepth: 16,
		LeaseTTL: 150 * time.Millisecond, retryBackoff: time.Millisecond,
		MaxRetries: 8, quarantineAfter: -1,
		Executors: []Executor{
			NewChaosExecutor(Local("chaos-0"), ChaosConfig{Seed: 11, Rate: 0.4}),
			NewChaosExecutor(Local("chaos-1"), ChaosConfig{Seed: 12, Rate: 0.4}),
		},
	})
	defer s.Drain(context.Background())

	var ids []string
	for _, bench := range []string{"FFT", "Ocean"} {
		for _, sys := range []string{"base", "nc"} {
			st, err := s.Submit(Request{Bench: bench, System: sys})
			if err != nil {
				t.Fatalf("%s/%s: %v", bench, sys, err)
			}
			ids = append(ids, st.ID)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()
	for _, id := range ids {
		st, err := s.Wait(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateDone {
			t.Fatalf("%s/%s finished %s: %s", st.System, st.Bench, st.State, st.Error)
		}
		res, _, err := s.Result(id)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(goldenFile(st))
		if err != nil {
			t.Fatalf("no committed golden for chaos cell: %v", err)
		}
		var want goldenCell
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatalf("corrupt golden file: %v", err)
		}
		if res.Refs != want.Refs {
			t.Errorf("%s/%s: Refs %d under injection, golden %d", st.System, st.Bench, res.Refs, want.Refs)
		}
		for _, d := range stats.DiffCounters(res.Counters, want.Stats) {
			t.Errorf("%s/%s under injection vs golden: %s", st.System, st.Bench, d.String())
		}
	}
}

// ChaosKind names one injected failure mode.
type ChaosKind int

// The five injected failure modes.
const (
	// ChaosCrash kills the attempt outright: no heartbeats, no result,
	// just silence until the lease is revoked.
	ChaosCrash ChaosKind = iota
	// ChaosStall heartbeats twice and then goes silent — the worker
	// was alive and then wedged.
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

// ChaosConfig tunes the injector.
type ChaosConfig struct {
	// Seed drives the injection RNG; a fixed seed yields a
	// reproducible draw sequence.
	Seed int64
	// Rate is the per-attempt injection probability in (0,1].
	Rate float64
	// Kinds restricts which faults are injected; nil means all five.
	Kinds []ChaosKind
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

// NewChaosExecutor wraps inner with the fault injector.
func NewChaosExecutor(inner Executor, cfg ChaosConfig) *ChaosExecutor {
	if len(cfg.Kinds) == 0 {
		cfg.Kinds = []ChaosKind{ChaosCrash, ChaosStall, ChaosSlow, ChaosDrop, ChaosDup}
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
		// Alive, then wedged: two renewals, then silence until the
		// monitor revokes the lease.
		every := lease.heartbeatEvery()
		if every <= 0 {
			every = 5 * time.Millisecond
		}
		for i := 0; i < 2; i++ {
			if !chaosSleep(ctx, every) {
				break
			}
			lease.Heartbeat()
		}
		<-ctx.Done()
		return dsmnc.Result{}, fmt.Errorf("%w: injected stall (attempt %d)", ErrLeaseLost, task.Attempt)
	case ChaosSlow:
		// Late but alive: finish the work, then sit on the answer for
		// two lease TTLs while dutifully renewing the lease. Slow is not
		// dead — the scheduler must not revoke this one.
		res, err := c.inner.Execute(ctx, task, lease)
		slowBy := 2 * lease.TTL()
		if slowBy <= 0 {
			slowBy = 50 * time.Millisecond
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
