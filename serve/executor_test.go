package serve

// The executor-fabric unit suite: lease loss and reassignment, the
// bounded retry budget, deterministic backoff, the circuit breaker and
// its readiness account, the watch-capacity guarantee across a
// max-retry lifetime, a Drain racing ledger recovery under -race, the
// drain contract for backoff waiters and a replayed backlog, and the
// reassignment budget surviving a restart. The sustained-injection
// proof lives in chaos_test.go.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dsmnc"
)

// funcExecutor adapts a closure to the Executor interface, the test
// stand-in for a remote transport.
type funcExecutor struct {
	name string
	fn   func(ctx context.Context, t *Task, l *Lease) (dsmnc.Result, error)
}

func (e *funcExecutor) Name() string { return e.name }

func (e *funcExecutor) Execute(ctx context.Context, t *Task, l *Lease) (dsmnc.Result, error) {
	return e.fn(ctx, t, l)
}

// TestLeaseLossReassigns is the fabric's core promise: an attempt that
// goes silent has its lease revoked by the monitor and the job is
// reassigned, not lost — and the revoked attempt's eventual return is
// discarded by the epoch guard, not double-counted.
func TestLeaseLossReassigns(t *testing.T) {
	flaky := &funcExecutor{name: "flaky"}
	flaky.fn = func(ctx context.Context, task *Task, l *Lease) (dsmnc.Result, error) {
		if task.Attempt == 1 {
			// Silent death: no heartbeats, no answer, until revoked.
			<-ctx.Done()
			return dsmnc.Result{}, fmt.Errorf("%w: worker went dark", ErrLeaseLost)
		}
		return dsmnc.Result{Refs: 1}, nil
	}
	s := mustScheduler(t, Config{
		Workers: 1, LeaseTTL: 30 * time.Millisecond,
		retryBackoff: -1, MaxRetries: 2, quarantineAfter: -1,
		Executors: []Executor{flaky},
	})
	defer s.Drain(context.Background())

	st0, err := s.Submit(req(0))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st, err := s.Wait(ctx, st0.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Fatalf("job finished %s (%s), want done after reassignment", st.State, st.Error)
	}
	if st.Attempt != 2 || st.Executor != "flaky" {
		t.Errorf("status reports attempt %d on %q, want attempt 2 on flaky", st.Attempt, st.Executor)
	}
	if got := s.leaseLost.Load(); got != 1 {
		t.Errorf("leaseLost = %d, want 1", got)
	}
	if got := s.reassigned.Load(); got != 1 {
		t.Errorf("reassigned = %d, want 1", got)
	}
	// The revoked attempt returned after its lease was gone; the epoch
	// guard must have discarded it (its return races Wait, so poll).
	deadline := time.Now().Add(5 * time.Second)
	for s.staleResults.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("revoked attempt's late return was never discarded as stale")
		}
		time.Sleep(time.Millisecond)
	}
	if got := s.completed.Load(); got != 1 {
		t.Errorf("completed = %d, want exactly 1", got)
	}
}

// TestVoluntaryLeaseSurrender: an executor that returns ErrLeaseLost is
// a transient infrastructure failure — reassigned until the budget is
// spent, then failed with an ErrLeaseLost-wrapped error. Leases are
// disabled here, proving the deliver path alone classifies transience.
func TestVoluntaryLeaseSurrender(t *testing.T) {
	var attempts atomic.Int64
	bad := &funcExecutor{name: "bad", fn: func(ctx context.Context, task *Task, l *Lease) (dsmnc.Result, error) {
		attempts.Add(1)
		return dsmnc.Result{}, fmt.Errorf("%w: connection reset", ErrLeaseLost)
	}}
	s := mustScheduler(t, Config{
		Workers: 1, LeaseTTL: -1, retryBackoff: -1, MaxRetries: 1, quarantineAfter: -1,
		Executors: []Executor{bad},
	})
	defer s.Drain(context.Background())

	st0, err := s.Submit(req(0))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st, err := s.Wait(ctx, st0.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateFailed {
		t.Fatalf("job finished %s, want failed once the retry budget is spent", st.State)
	}
	if !strings.Contains(st.Error, "gave up after 2 attempts") {
		t.Errorf("failure %q does not account for the spent budget", st.Error)
	}
	if got := attempts.Load(); got != 2 {
		t.Errorf("executor ran %d attempts, want 2 (1 + MaxRetries)", got)
	}
	if got := s.failed.Load(); got != 1 {
		t.Errorf("failed = %d, want 1", got)
	}
}

// TestRetryBackoffDeterministic: a fixed seed yields a reproducible
// backoff schedule, each delay exponential in the loss count and
// jittered within [d/2, d].
func TestRetryBackoffDeterministic(t *testing.T) {
	const base = 10 * time.Millisecond
	seq := func(seed int64) []time.Duration {
		rng := rand.New(rand.NewSource(seed))
		out := make([]time.Duration, 0, 20)
		for losses := 1; losses <= 20; losses++ {
			out = append(out, retryDelay(base, maxRetryBackoff, losses, rng))
		}
		return out
	}
	a, b := seq(7), seq(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 7, loss %d: %v vs %v — schedule is not reproducible", i+1, a[i], b[i])
		}
	}
	for i, d := range a {
		exp := base << i
		if exp > maxRetryBackoff || exp <= 0 {
			exp = maxRetryBackoff
		}
		if d < exp/2 || d > exp {
			t.Errorf("loss %d: delay %v outside jitter window [%v, %v]", i+1, d, exp/2, exp)
		}
	}
	if d := retryDelay(0, maxRetryBackoff, 3, rand.New(rand.NewSource(1))); d != 0 {
		t.Errorf("disabled backoff returned %v, want 0", d)
	}
}

// TestAllQuarantinedStillServes: the breaker trips on the sole executor
// (readiness goes unready with reason "quarantined") but dispatch falls
// back to the least-bad domain — availability over purity — so jobs
// still settle instead of stranding.
func TestAllQuarantinedStillServes(t *testing.T) {
	bad := &funcExecutor{name: "bad", fn: func(ctx context.Context, task *Task, l *Lease) (dsmnc.Result, error) {
		return dsmnc.Result{}, fmt.Errorf("%w: flapping link", ErrLeaseLost)
	}}
	s := mustScheduler(t, Config{
		Workers: 1, LeaseTTL: -1, retryBackoff: -1, MaxRetries: 0,
		quarantineAfter: 1, quarantineFor: time.Hour,
		Executors: []Executor{bad},
	})
	defer s.Drain(context.Background())

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st0, err := s.Submit(req(0))
	if err != nil {
		t.Fatal(err)
	}
	if st, err := s.Wait(ctx, st0.ID); err != nil || st.State != StateFailed {
		t.Fatalf("first job: %v / %v, want failed", st, err)
	}
	if got := s.quarantined.Load(); got < 1 {
		t.Errorf("quarantined trips = %d, want >= 1", got)
	}
	rd := s.Readiness()
	if rd.Ready || rd.Reason != "quarantined" {
		t.Errorf("readiness = %+v, want unready with reason quarantined", rd)
	}
	if len(rd.Executors) != 1 || !rd.Executors[0].Quarantined || rd.Executors[0].Name != "bad" {
		t.Errorf("executor account %+v does not show bad quarantined", rd.Executors)
	}
	// A second job must still be dispatched (to the quarantined domain,
	// there being no other) and settle rather than hang.
	st1, err := s.Submit(req(1))
	if err != nil {
		t.Fatal(err)
	}
	if st, err := s.Wait(ctx, st1.ID); err != nil || st.State != StateFailed {
		t.Fatalf("job under full quarantine: %v / %v, want failed (served, not stranded)", st, err)
	}
}

// TestWatchCapacityNotifyNeverDrops is the satellite regression: a
// watcher that reads nothing until the job settles still receives every
// transition of a maximal lifetime — the initial snapshot plus one
// running and one requeue notification per attempt and the terminal
// status — because Watch's capacity is derived from MaxRetries.
func TestWatchCapacityNotifyNeverDrops(t *testing.T) {
	gate := make(chan struct{})
	exec := &funcExecutor{name: "mixed", fn: func(ctx context.Context, task *Task, l *Lease) (dsmnc.Result, error) {
		if task.Request.NCBytes == req(0).NCBytes {
			<-gate // the blocker: holds the lone worker until released
			return dsmnc.Result{Refs: 1}, nil
		}
		return dsmnc.Result{}, fmt.Errorf("%w: surrendered", ErrLeaseLost)
	}}
	const retries = 3
	s := mustScheduler(t, Config{
		Workers: 1, LeaseTTL: -1, retryBackoff: -1, MaxRetries: retries, quarantineAfter: -1,
		Executors: []Executor{exec},
	})
	defer s.Drain(context.Background())

	// Occupy the only worker so the victim is provably still queued
	// when the watch is registered.
	blocker, err := s.Submit(req(0))
	if err != nil {
		t.Fatal(err)
	}
	victim, err := s.Submit(req(1))
	if err != nil {
		t.Fatal(err)
	}
	ch, err := s.Watch(victim.ID)
	if err != nil {
		t.Fatal(err)
	}
	if cap(ch) != 2*(retries+1)+2 {
		t.Fatalf("watch capacity %d, want %d for MaxRetries=%d", cap(ch), 2*(retries+1)+2, retries)
	}
	close(gate)

	// Drain the channel without ever keeping pace; it closes after the
	// terminal status is delivered.
	var got []Status
	for st := range ch {
		got = append(got, st)
	}
	want := 1 + 2*(retries+1) // snapshot + (running, requeue-or-terminal) per attempt
	if len(got) != want {
		states := make([]State, len(got))
		for i, st := range got {
			states[i] = st.State
		}
		t.Fatalf("watcher saw %d statuses %v, want all %d — notifyLocked dropped", len(got), states, want)
	}
	if got[0].State != StateQueued {
		t.Errorf("snapshot state %s, want queued", got[0].State)
	}
	running := 0
	for _, st := range got {
		if st.State == StateRunning {
			running++
		}
	}
	if running != retries+1 {
		t.Errorf("watcher saw %d running transitions, want %d", running, retries+1)
	}
	if last := got[len(got)-1]; last.State != StateFailed || last.Attempt != retries+1 {
		t.Errorf("final status %+v, want failed at attempt %d", last, retries+1)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if st, err := s.Wait(ctx, blocker.ID); err != nil || st.State != StateDone {
		t.Fatalf("blocker: %v / %v", st, err)
	}
}

// TestDrainRacesRecovery: a forced Drain that lands while a replayed
// ledger backlog is still recovering (one gated worker behind a
// one-deep queue, so most of the backlog provably still waits) must
// settle every replayed job to a terminal state and leak nothing. Run under -race by
// make race and make chaos-smoke.
func TestDrainRacesRecovery(t *testing.T) {
	before := runtime.NumGoroutine()
	path := ledgerPath(t)

	// An ID oracle with the same config the recovering scheduler uses.
	oracle := mustScheduler(t, Config{Workers: 1, runFn: newFakeRunner(nil, 0).run})
	l, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	const backlog = 64
	ids := make([]string, 0, backlog)
	for n := 0; n < backlog; n++ {
		id, fp := idFor(t, oracle, req(n))
		if err := l.accepted(id, req(n).normalized(), fp, time.Now()); err != nil {
			t.Fatal(err)
		}
		if n%7 == 0 {
			// A few jobs had already burned retries before the crash.
			if err := l.reassigned(id, 1, time.Now()); err != nil {
				t.Fatal(err)
			}
		}
		ids = append(ids, id)
	}
	l.Close()
	if err := oracle.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	l2, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{}) // never released: the drain must force it
	fr := newFakeRunner(gate, 0)
	s, err := New(Config{Workers: 1, QueueDepth: 1, Ledger: l2, runFn: fr.run})
	if err != nil {
		t.Fatal(err)
	}
	// Let the backlog wedge: one job running against the gate, the
	// other sixty-three waiting in the run queue.
	time.Sleep(20 * time.Millisecond)

	dctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if err := s.Drain(dctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced drain returned %v, want the deadline error", err)
	}
	for _, id := range ids {
		st, err := s.Status(id)
		if err != nil {
			t.Fatalf("replayed job %s lost by the drain: %v", id, err)
		}
		if !st.State.Terminal() {
			t.Fatalf("replayed job %s left %s after Drain returned", id, st.State)
		}
	}
	checkNoGoroutineLeak(t, before)
}

// TestDrainCancelsBackoffWaiters: a job waiting out a reassignment
// backoff is not in the run queue, so nothing would ever run it after
// a drain; a graceful Drain must settle it canceled at once instead of
// waiting out the (hour-long) delay, and leave no timer or goroutine
// behind. Run under -race by make chaos-smoke.
func TestDrainCancelsBackoffWaiters(t *testing.T) {
	before := runtime.NumGoroutine()
	surrender := &funcExecutor{name: "surrender", fn: func(ctx context.Context, task *Task, l *Lease) (dsmnc.Result, error) {
		return dsmnc.Result{}, fmt.Errorf("%w: surrendered", ErrLeaseLost)
	}}
	s, err := New(Config{
		Workers: 1, LeaseTTL: -1, retryBackoff: time.Hour, MaxRetries: 1, quarantineAfter: -1,
		Executors: []Executor{surrender},
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Submit(req(0))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		got, err := s.Status(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.State == StateQueued && got.Attempt == 1 {
			break // surrendered once, now waiting out the backoff
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never reached its backoff: %+v", got)
		}
		time.Sleep(time.Millisecond)
	}

	start := time.Now()
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("graceful Drain took %v with a job in backoff, want under 1s", took)
	}
	if got, err := s.Status(st.ID); err != nil || got.State != StateCanceled {
		t.Fatalf("backoff waiter after Drain: %+v / %v, want canceled", got, err)
	}
	checkNoGoroutineLeak(t, before)
}

// TestGracefulDrainRunsReplayedBacklog: replayed ledger jobs are queued
// work like any other, so a graceful drain runs every one of them —
// including those beyond the Workers+QueueDepth admission bound — to
// completion rather than canceling the overflow. Run under -race by
// make chaos-smoke.
func TestGracefulDrainRunsReplayedBacklog(t *testing.T) {
	before := runtime.NumGoroutine()
	path := ledgerPath(t)
	oracle := mustScheduler(t, Config{Workers: 1, runFn: newFakeRunner(nil, 0).run})
	l, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	const backlog = 4
	ids := make([]string, 0, backlog)
	for n := 0; n < backlog; n++ {
		id, fp := idFor(t, oracle, req(n))
		if err := l.accepted(id, req(n).normalized(), fp, time.Now()); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	l.Close()
	if err := oracle.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	l2, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	fr := newFakeRunner(gate, 0)
	s, err := New(Config{Workers: 1, QueueDepth: 1, Ledger: l2, runFn: fr.run})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // one job holds the gate, three wait
	close(gate)
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if st, err := s.Status(id); err != nil || st.State != StateDone {
			t.Fatalf("replayed job %s after a graceful drain: %+v / %v, want done", id, st, err)
		}
	}
	if total, maxPer := fr.totalRuns(); total != backlog || maxPer != 1 {
		t.Fatalf("drain ran %d jobs (max %d per job); want each of %d exactly once", total, maxPer, backlog)
	}
	checkNoGoroutineLeak(t, before)
}

// TestReassignCountsSurviveRestart: the reassigned ledger records make
// the retry budget durable — a job that lost N leases before a crash
// resumes with N losses spent, so a restart cannot launder a flapping
// job into a fresh budget.
func TestReassignCountsSurviveRestart(t *testing.T) {
	path := ledgerPath(t)
	oracle := mustScheduler(t, Config{Workers: 1, runFn: newFakeRunner(nil, 0).run})
	l, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	id, fp := idFor(t, oracle, req(0))
	if err := l.accepted(id, req(0).normalized(), fp, time.Now()); err != nil {
		t.Fatal(err)
	}
	// Two losses journaled before the crash; the second record wins.
	if err := l.reassigned(id, 1, time.Now()); err != nil {
		t.Fatal(err)
	}
	if err := l.reassigned(id, 2, time.Now()); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if err := oracle.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	var attempts atomic.Int64
	bad := &funcExecutor{name: "bad", fn: func(ctx context.Context, task *Task, l *Lease) (dsmnc.Result, error) {
		attempts.Add(1)
		return dsmnc.Result{}, fmt.Errorf("%w: still flapping", ErrLeaseLost)
	}}
	l2, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Workers: 1, LeaseTTL: -1, retryBackoff: -1, MaxRetries: 2, quarantineAfter: -1,
		Executors: []Executor{bad}, Ledger: l2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(context.Background())
	if _, replayed := s.RecoveryStats(); replayed != 1 {
		t.Fatalf("replayed %d jobs, want 1", replayed)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st, err := s.Wait(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	// Budget is MaxRetries=2 losses; two were spent pre-crash, so the
	// single post-restart loss must exhaust it.
	if st.State != StateFailed || !strings.Contains(st.Error, "gave up after 3 attempts") {
		t.Fatalf("recovered flapper finished %s (%s), want failed on the inherited budget", st.State, st.Error)
	}
	if got := attempts.Load(); got != 1 {
		t.Errorf("executor ran %d post-restart attempts, want 1", got)
	}
}

// FuzzStatusJSON: the wire-visible status and readiness documents
// round-trip through encoding/json without panics or drift — the
// no-surprises guarantee behind /v1/jobs and /readyz.
func FuzzStatusJSON(f *testing.F) {
	f.Add([]byte(`{"id":"x","state":"queued","attempt":1,"executor":"local-0"}`))
	f.Add([]byte(`{"ready":true,"reason":"degraded","executors":[{"name":"local-0","quarantined":true}]}`))
	f.Add([]byte(`{"state":"running","queued":"2026-01-02T15:04:05Z"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var st Status
		if json.Unmarshal(data, &st) == nil {
			out, err := json.Marshal(st)
			if err != nil {
				t.Fatalf("status failed to re-marshal: %v", err)
			}
			var again Status
			if err := json.Unmarshal(out, &again); err != nil {
				t.Fatalf("status round-trip: %v re-parsing %s", err, out)
			}
		}
		var rd Readiness
		if json.Unmarshal(data, &rd) == nil {
			out, err := json.Marshal(rd)
			if err != nil {
				t.Fatalf("readiness failed to re-marshal: %v", err)
			}
			var again Readiness
			if err := json.Unmarshal(out, &again); err != nil {
				t.Fatalf("readiness round-trip: %v re-parsing %s", err, out)
			}
		}
	})
}
