package serve

// The chaos gate (make chaos-smoke, run race-instrumented): soak the
// scheduler under sustained seeded fault injection — all five kinds —
// and require the fabric's contract: zero lost acknowledged jobs, zero
// duplicate completions, the breaker quarantining a rotten executor
// while the rest keep serving, a shed (never a hang) when the pool is
// saturated, and served results field-identical to the golden corpus
// even when every cell may be crashed, stalled or duplicated en route.

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"runtime"
	"testing"
	"time"

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
		LeaseTTL: 40 * time.Millisecond, RetryBackoff: time.Millisecond,
		MaxRetries: 12, QuarantineAfter: -1,
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
		RetryBackoff: -1, MaxRetries: 5,
		QuarantineAfter: 2, QuarantineFor: time.Hour,
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
	// QuarantineAfter consecutive losses by construction.
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
		RetryBackoff: -1, MaxRetries: 3,
		QuarantineAfter: 1, QuarantineFor: time.Hour,
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
		LeaseTTL: 150 * time.Millisecond, RetryBackoff: time.Millisecond,
		MaxRetries: 8, QuarantineAfter: -1,
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
