package serve

// Scheduler-level crash-recovery behavior: ledger replay restoring
// results and re-enqueueing unfinished work, the recovered/health gate,
// the watchdog, the Retry-After estimate, and the terminal-delivery and
// cancel-vs-completion regressions. The full-binary SIGKILL torture
// suite lives in cmd/dsmserved.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"dsmnc"
	"dsmnc/telemetry"
)

// idFor computes the idempotent job ID a request gets under s's config,
// exactly the way Submit derives it.
func idFor(t *testing.T, s *Scheduler, r Request) (id, fingerprint string) {
	t.Helper()
	r = r.normalized()
	_, _, opt, err := r.compile(s.cfg.Options)
	if err != nil {
		t.Fatal(err)
	}
	opt.CellTimeout = s.timeoutFor(r)
	return jobID(r, opt), opt.Fingerprint()
}

func TestSchedulerRecovery(t *testing.T) {
	before := runtime.NumGoroutine()
	path := ledgerPath(t)

	// Life 1: one job runs to completion, its result durably journaled.
	l1, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	fr1 := newFakeRunner(nil, 0)
	s1, err := New(Config{Workers: 1, Ledger: l1, runFn: fr1.run})
	if err != nil {
		t.Fatal(err)
	}
	st0, err := s1.Submit(req(0))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if st, err := s1.Wait(ctx, st0.ID); err != nil || st.State != StateDone {
		t.Fatalf("life 1 job: %v / %v", st, err)
	}
	if err := s1.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	// Crash residue: three more jobs were acknowledged (one had even
	// started) but never finished. Written through a raw ledger handle,
	// the way a SIGKILL'd scheduler would have left them.
	l2, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	var unfinished []string
	for n := 1; n <= 3; n++ {
		id, fp := idFor(t, s1, req(n))
		if err := l2.accepted(id, req(n).normalized(), fp, time.Now()); err != nil {
			t.Fatal(err)
		}
		unfinished = append(unfinished, id)
	}
	if err := l2.started(unfinished[0], time.Now()); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	// A fourth, written by a server from before requests lost their
	// shards field: the record still carries it, and the job must
	// replay under the ID that server gave it.
	legacy, fp := idFor(t, s1, req(4))
	if legacy != "99bca199aa8d4c0d" {
		t.Fatalf("req(4) derives job ID %s; ledgers written before the shards field was removed hold 99bca199aa8d4c0d", legacy)
	}
	appendLegacyAccepted(t, path, legacy, fp, req(4).normalized())
	unfinished = append(unfinished, legacy)

	// Life 2: recovery restores the finished job's result and re-runs
	// the unfinished four under their existing IDs. One worker behind a
	// one-deep queue against a four-job backlog keeps Recovered() false
	// until the gate opens — the /healthz 503 window.
	l3, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	fr2 := newFakeRunner(gate, 0)
	s2, err := New(Config{Workers: 1, QueueDepth: 1, Ledger: l3, runFn: fr2.run})
	if err != nil {
		t.Fatal(err)
	}
	if restored, replayed := s2.RecoveryStats(); restored != 1 || replayed != 4 {
		t.Fatalf("RecoveryStats = %d restored, %d replayed; want 1, 4", restored, replayed)
	}
	if s2.Recovered() {
		t.Fatal("Recovered() true while the replay backlog is still gated")
	}
	res, st, err := s2.Result(st0.ID)
	if err != nil || st.State != StateDone {
		t.Fatalf("restored job: %v / %v", st, err)
	}
	if res.Refs != 1 || res.Bench != "FFT" {
		t.Fatalf("restored result %+v lost its fields", res)
	}
	// A client retry of the finished job coalesces onto the restored
	// entry without re-running anything.
	if st, err := s2.Submit(req(0)); err != nil || st.State != StateDone {
		t.Fatalf("retry of restored job: %v / %v", st, err)
	}
	fr2.mu.Lock()
	rerun := fr2.runs[st0.ID]
	fr2.mu.Unlock()
	if rerun != 0 {
		t.Fatalf("restored job re-ran %d times; its ledgered result should have answered", rerun)
	}

	close(gate)
	for _, id := range unfinished {
		if st, err := s2.Wait(ctx, id); err != nil || st.State != StateDone {
			t.Fatalf("replayed job %s: %v / %v", id, st, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for !s2.Recovered() {
		if time.Now().After(deadline) {
			t.Fatal("Recovered() never turned true after the backlog drained")
		}
		time.Sleep(time.Millisecond)
	}
	if total, maxPer := fr2.totalRuns(); total != 4 || maxPer != 1 {
		t.Fatalf("replay ran %d jobs (max %d per job); want each of 4 exactly once", total, maxPer)
	}
	if err := s2.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	checkNoGoroutineLeak(t, before)
}

// appendLegacyAccepted appends an accepted record for r the way a
// server from before the request's shards field was removed framed it,
// with "shards":2 as the request's last field.
func appendLegacyAccepted(t *testing.T, path, id, fingerprint string, r Request) {
	t.Helper()
	line := legacyAcceptedLine(t, id, fingerprint, r, 2)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// legacyAcceptedLine frames an accepted ledger line for r whose request
// carries "shards":shards as its last field, as servers from before the
// field was removed wrote it.
func legacyAcceptedLine(t *testing.T, id, fingerprint string, r Request, shards int) []byte {
	t.Helper()
	body, err := json.Marshal(ledgerRecord{Kind: recAccepted, ID: id, Time: time.Now(), Request: &r, Fingerprint: fingerprint})
	if err != nil {
		t.Fatal(err)
	}
	field := fmt.Sprintf(`,"shards":%d}`, shards)
	body = bytes.Replace(body, []byte(`},"fingerprint":`), []byte(field+`,"fingerprint":`), 1)
	if !bytes.Contains(body, []byte(field)) {
		t.Fatalf("legacy record lacks its shards field: %s", body)
	}
	line, err := json.Marshal(ledgerLine{Sum: fmt.Sprintf("%08x", crc32.Checksum(body, ledgerCRC)), Rec: body})
	if err != nil {
		t.Fatal(err)
	}
	return line
}

// TestShardsIdentityFree pins the compatibility contract of the removed
// shards field: a ledger record carrying any shards value it once took
// (a count, or -1 for sequential) reads back as the same request, with
// the same fingerprint and job ID, as the record without it.
func TestShardsIdentityFree(t *testing.T) {
	s := mustScheduler(t, Config{Workers: 1, QueueDepth: 1})
	defer s.Drain(context.Background())
	r := Request{Bench: "FFT", System: "base"}.normalized()
	id, fp := idFor(t, s, r)
	for _, shards := range []int{2, 4, -1} {
		rec, err := parseLedgerLine(legacyAcceptedLine(t, id, fp, r, shards))
		if err != nil {
			t.Fatalf("shards=%d: legacy record rejected: %v", shards, err)
		}
		if *rec.Request != r {
			t.Fatalf("shards=%d: legacy record reads back as %+v, want %+v", shards, *rec.Request, r)
		}
		if got, _ := idFor(t, s, *rec.Request); got != id || rec.Request.Fingerprint() != r.Fingerprint() {
			t.Fatalf("shards=%d: legacy request derives job ID %s, want %s", shards, got, id)
		}
	}
}

func TestRecoveryRejectsForeignID(t *testing.T) {
	path := ledgerPath(t)
	l, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	// An accepted record whose ID cannot be derived from its request
	// under this server's options — the options changed between boots.
	const foreign = "00000000deadbeef"
	if err := l.accepted(foreign, req(1).normalized(), "stale", time.Now()); err != nil {
		t.Fatal(err)
	}
	l.Close()

	l2, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Workers: 1, Ledger: l2, runFn: newFakeRunner(nil, 0).run})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Status(foreign)
	if err != nil || st.State != StateFailed {
		t.Fatalf("foreign job: %v / %v; want a failed status", st, err)
	}
	if !strings.Contains(st.Error, "different options") {
		t.Fatalf("foreign job error %q does not explain the mismatch", st.Error)
	}
	if restored, replayed := s.RecoveryStats(); restored != 0 || replayed != 0 {
		t.Fatalf("RecoveryStats = %d, %d; a rejected job is neither restored nor replayed", restored, replayed)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestSchedulerCompaction proves the ledger's size is bounded by the
// live-job set, not by history, and that a compacted ledger still
// recovers everything it should.
func TestSchedulerCompaction(t *testing.T) {
	path := ledgerPath(t)
	l, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Workers: 2, KeepResults: 4, CompactEvery: 4, Ledger: l, runFn: newFakeRunner(nil, 0).run})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var last string
	for n := 0; n < 32; n++ {
		st, err := s.Submit(req(n))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Wait(ctx, st.ID); err != nil {
			t.Fatal(err)
		}
		last = st.ID
	}
	// 32 finished jobs would be 96 append records; compaction every 4
	// terminals must keep the file near the 4-job KeepResults bound
	// (at most 3 records per live job plus one un-compacted stride).
	if got := l.Records(); got > 3*4+3*4 {
		t.Fatalf("ledger holds %d records after 32 jobs; compaction is not bounding it", got)
	}
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	l2, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := New(Config{Workers: 1, KeepResults: 4, Ledger: l2, runFn: newFakeRunner(nil, 0).run})
	if err != nil {
		t.Fatal(err)
	}
	if st, err := s2.Status(last); err != nil || st.State != StateDone {
		t.Fatalf("last job after compacted recovery: %v / %v", st, err)
	}
	restored, _ := s2.RecoveryStats()
	if restored == 0 || restored > 4 {
		t.Fatalf("restored %d jobs from the compacted ledger; want 1..4", restored)
	}
	if err := s2.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestSubmitFailsWhenLedgerBroken(t *testing.T) {
	l, err := OpenLedger(ledgerPath(t))
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Workers: 1, Ledger: l, runFn: newFakeRunner(nil, 0).run})
	if err != nil {
		t.Fatal(err)
	}
	l.Close() // every append now fails: durability is gone

	id, _ := idFor(t, s, req(0))
	if _, err := s.Submit(req(0)); err == nil {
		t.Fatal("Submit succeeded though the accepted record could not be written")
	}
	// No ghost: the unacknowledged job is not registered anywhere.
	if _, err := s.Status(id); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("Status after failed submit = %v, want ErrUnknownJob", err)
	}
	if s.ledgerErrs.Load() == 0 {
		t.Fatal("ledger failure was not counted")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestWatchdogKillsWedgedJob(t *testing.T) {
	before := runtime.NumGoroutine()
	wedge := make(chan struct{})
	returned := make(chan struct{})
	s, err := New(Config{
		Workers: 1, WatchdogFactor: 2,
		runFn: func(ctx context.Context, j *job) (dsmnc.Result, error) {
			// A wedged engine: ignores its context entirely.
			defer close(returned)
			<-wedge
			return dsmnc.Result{Refs: 999}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := req(0)
	r.TimeoutMS = 10
	st, err := s.Submit(r)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	final, err := s.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateFailed || !strings.Contains(final.Error, "watchdog") {
		t.Fatalf("wedged job settled as %s %q; want watchdog failure", final.State, final.Error)
	}
	if got := s.watchdogKills.Load(); got != 1 {
		t.Fatalf("watchdogKills = %d, want 1", got)
	}
	// The engine finally returns; its late result must be discarded, not
	// resurrect the job.
	close(wedge)
	<-returned
	if st, err := s.Status(final.ID); err != nil || st.State != StateFailed {
		t.Fatalf("late return flipped the job to %v (%v)", st, err)
	}
	if s.completed.Load() != 0 {
		t.Fatal("late return counted as a completion")
	}
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	checkNoGoroutineLeak(t, before)
}

// TestWatchTerminalDelivers is the regression the streaming endpoint
// depends on: Watch on an already-terminal job must still deliver the
// final status once, then close.
func TestWatchTerminalDelivers(t *testing.T) {
	s := mustTestScheduler(t, 1)
	st, err := s.Submit(req(0))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := s.Wait(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	ch, err := s.Watch(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := <-ch
	if !ok || got.State != StateDone {
		t.Fatalf("Watch on terminal job delivered %v (ok=%t); want the done status", got, ok)
	}
	if _, ok := <-ch; ok {
		t.Fatal("Watch channel did not close after the terminal status")
	}
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

// mustTestScheduler builds a scheduler with an instant fake runner.
func mustTestScheduler(t *testing.T, workers int) *Scheduler {
	t.Helper()
	s, err := New(Config{Workers: workers, runFn: newFakeRunner(nil, 0).run})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCancelCompletionRace drills the Cancel-vs-completion window under
// the race detector: every job must settle exactly once, as done or
// canceled, never failed, never twice.
func TestCancelCompletionRace(t *testing.T) {
	s, err := New(Config{Workers: 4, KeepResults: 1 << 12, runFn: newFakeRunner(nil, 50*time.Microsecond).run})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	const n = 200
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		st, err := s.Submit(req(i))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			if _, err := s.Cancel(id); err != nil && !errors.Is(err, ErrUnknownJob) {
				t.Errorf("Cancel(%s): %v", id, err)
			}
		}(st.ID)
		if final, err := s.Wait(ctx, st.ID); err != nil {
			t.Fatal(err)
		} else if final.State != StateDone && final.State != StateCanceled {
			t.Fatalf("job %s settled as %s (%s); want done or canceled", st.ID, final.State, final.Error)
		}
	}
	wg.Wait()
	if done, canc := s.completed.Load(), s.canceled.Load(); done+canc != n {
		t.Fatalf("done %d + canceled %d != %d submitted", done, canc, n)
	}
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestRetryAfterEstimate(t *testing.T) {
	cases := []struct {
		depth, workers int
		mean           float64
		want           time.Duration
	}{
		{0, 4, 10, time.Second},        // empty queue: the floor answers
		{10, 2, 1.0, 5 * time.Second},  // 10 jobs ÷ 2 workers × 1s
		{3, 4, 0.1, time.Second},       // sub-second estimate rounds up to the floor
		{7, 2, 1.0, 4 * time.Second},   // ceil(3.5)
		{100, 1, 60, 60 * time.Second}, // clamped at a minute
		{5, 0, 1.0, 5 * time.Second},   // zero workers treated as one
		{4, 4, 0, time.Second},         // nothing observed yet: floor
	}
	for _, c := range cases {
		if got := retryAfter(c.depth, c.workers, c.mean); got != c.want {
			t.Errorf("retryAfter(%d, %d, %g) = %v, want %v", c.depth, c.workers, c.mean, got, c.want)
		}
	}

	// Integration: a fresh scheduler's estimate is the 1s floor, and it
	// grows once the histogram has observed real run latency.
	gate := make(chan struct{})
	s, err := New(Config{Workers: 1, runFn: newFakeRunner(gate, 0).run})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.RetryAfter(); got != time.Second {
		t.Errorf("fresh RetryAfter = %v, want 1s", got)
	}
	s.runHist.Observe(30)
	for n := 0; n < 9; n++ { // one gated run, eight waiting behind it
		if _, err := s.Submit(req(n)); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.RetryAfter(); got < 2*time.Second {
		t.Errorf("loaded RetryAfter = %v; want an estimate above the floor", got)
	}
	close(gate)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestRetryAfterFleetCapacity is the regression for the remote-capacity
// bug: the estimate used to divide by the dispatch pool size alone,
// promising fast drains a small fleet cannot deliver. Capacity is now
// min(pool, fleet-wide worker slots) once remote executors have
// reported their probes.
func TestRetryAfterFleetCapacity(t *testing.T) {
	// loadFleet builds a coordinator over gated worker nodes, submits
	// jobs until `pool` are in flight and `depth` are waiting, and
	// returns the scheduler with the queue pinned at that depth.
	loadFleet := func(pool, nodes, slots, depth int) (*Scheduler, chan struct{}) {
		gate := make(chan struct{})
		blocked := func(ctx context.Context, wt *job) (dsmnc.Result, error) {
			select {
			case <-gate:
				return dsmnc.Result{Refs: 1}, nil
			case <-ctx.Done():
				return dsmnc.Result{}, ctx.Err()
			}
		}
		var execs []Executor
		for n := 0; n < nodes; n++ {
			w, err := NewWorker(WorkerConfig{Slots: slots, QueueDepth: pool, runFn: blocked})
			if err != nil {
				t.Fatal(err)
			}
			e := NewRemoteExecutor(fmt.Sprintf("node-%d", n), &workerClient{w: w})
			if _, err := e.Probe(context.Background()); err != nil {
				t.Fatal(err)
			}
			execs = append(execs, e)
		}
		s, err := New(Config{Workers: pool, Executors: execs, LeaseTTL: 200 * time.Millisecond,
			runFn: func(ctx context.Context, j *job) (dsmnc.Result, error) { return dsmnc.Result{}, nil }})
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n < pool+depth; n++ {
			if _, err := s.Submit(req(n)); err != nil {
				t.Fatal(err)
			}
		}
		deadline := time.Now().Add(10 * time.Second)
		for {
			if d, _ := s.QueueDepth(); d == depth && int(s.inflight.Load()) == pool {
				return s, gate
			}
			if time.Now().After(deadline) {
				d, _ := s.QueueDepth()
				t.Fatalf("queue never settled: depth %d (want %d), inflight %d (want %d)",
					d, depth, s.inflight.Load(), pool)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	drain := func(s *Scheduler, gate chan struct{}) {
		close(gate)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Fatal(err)
		}
	}

	// A 16-goroutine pool over two 3-slot nodes drains 6 cells at a
	// time: 12 waiting × 30s ÷ 6 slots = 60s. The old pool-only
	// division promised ceil(12 × 30 ÷ 16) = 23s.
	s, gate := loadFleet(16, 2, 3, 12)
	if got := s.fleetSlots(); got != 6 {
		t.Fatalf("fleetSlots = %d; want 2 nodes x 3 slots", got)
	}
	s.runHist.Observe(30)
	if got := s.RetryAfter(); got != 60*time.Second {
		t.Errorf("fleet RetryAfter = %v; want the slot-bound 60s estimate", got)
	}
	drain(s, gate)

	// A fleet larger than the pool is bounded by the pool: capacity is
	// the minimum of the two. 4 waiting × 10s ÷ min(2, 64) = 20s.
	s2, gate2 := loadFleet(2, 1, 64, 4)
	s2.runHist.Observe(10)
	if got := s2.RetryAfter(); got != 20*time.Second {
		t.Errorf("pool-bound RetryAfter = %v; want 20s", got)
	}
	drain(s2, gate2)
}

// TestRecoveryMetrics wires the new counters onto a registry and checks
// they render.
func TestRecoveryMetrics(t *testing.T) {
	s := mustTestScheduler(t, 1)
	reg := telemetry.NewRegistry()
	if err := s.RegisterMetrics(reg); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	for _, name := range []string{
		"dsmnc_serve_recovered_total",
		"dsmnc_serve_replayed_total",
		"dsmnc_serve_watchdog_killed_total",
		"dsmnc_serve_ledger_errors_total",
	} {
		if !strings.Contains(body, name) {
			t.Errorf("metrics exposition is missing %s", name)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}
