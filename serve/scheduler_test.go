package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dsmnc"
	"dsmnc/stats"
	"dsmnc/telemetry"
	"dsmnc/workload"
)

// req returns a small valid request; vary n for distinct job IDs.
func req(n int) Request {
	return Request{Bench: "FFT", System: "nc", NCBytes: (n + 1) << 10, Scale: "test"}
}

// fakeRunner replaces the simulation with synthetic work so scheduler
// mechanics can be tested at full speed. Each invocation is counted per
// job ID; the optional gate blocks completion until released (or the
// job's context ends, which surfaces like an engine cancellation).
type fakeRunner struct {
	mu    sync.Mutex
	runs  map[string]int
	gate  chan struct{}
	delay time.Duration
}

func newFakeRunner(gate chan struct{}, delay time.Duration) *fakeRunner {
	return &fakeRunner{runs: map[string]int{}, gate: gate, delay: delay}
}

func (f *fakeRunner) run(ctx context.Context, j *job) (dsmnc.Result, error) {
	f.mu.Lock()
	f.runs[j.id]++
	f.mu.Unlock()
	if f.delay > 0 {
		time.Sleep(f.delay)
	}
	if f.gate != nil {
		select {
		case <-f.gate:
		case <-ctx.Done():
			return dsmnc.Result{}, ctx.Err()
		}
	}
	if err := ctx.Err(); err != nil {
		return dsmnc.Result{}, err
	}
	return dsmnc.Result{System: j.sys.Name, Bench: j.bench.Name, Refs: 1}, nil
}

func (f *fakeRunner) totalRuns() (total int, maxPerJob int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, n := range f.runs {
		total += n
		if n > maxPerJob {
			maxPerJob = n
		}
	}
	return total, maxPerJob
}

// checkNoGoroutineLeak waits for the goroutine count to return to its
// pre-scheduler level (with a grace period for runtime stragglers).
func checkNoGoroutineLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		now := runtime.NumGoroutine()
		if now <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before the scheduler, %d after Drain", before, now)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServeSoak is the serving concurrency soak (run under -race by
// make serve-smoke): 64 concurrent submitters hammer a 4-worker pool
// behind a 64-deep queue. Every submission is either accepted and runs
// exactly once to a terminal state, or is shed with ErrBusy — no lost
// jobs, no duplicated work, a queue that never exceeds its bound — and
// Drain returns with every worker goroutine gone.
func TestServeSoak(t *testing.T) {
	before := runtime.NumGoroutine()
	s, err := New(Config{Workers: 4, QueueDepth: 64, KeepResults: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	fr := newFakeRunner(nil, 200*time.Microsecond)
	s.runFn = fr.run

	const submitters = 64
	const perSubmitter = 32
	var accepted, shed atomic.Int64
	var acceptedIDs sync.Map // id -> struct{}
	var maxDepth atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				st, err := s.Submit(req(w*perSubmitter + i))
				if depth, capacity := s.QueueDepth(); depth > capacity {
					t.Errorf("queue depth %d exceeded its %d bound", depth, capacity)
				} else if int64(depth) > maxDepth.Load() {
					maxDepth.Store(int64(depth))
				}
				switch {
				case err == nil:
					accepted.Add(1)
					acceptedIDs.Store(st.ID, struct{}{})
				case errors.Is(err, ErrBusy):
					shed.Add(1)
				default:
					t.Errorf("submit: unexpected error %v", err)
				}
			}
		}(w)
	}
	wg.Wait()
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}

	if got := accepted.Load() + shed.Load(); got != submitters*perSubmitter {
		t.Errorf("accounting hole: %d accepted + %d shed != %d submissions",
			accepted.Load(), shed.Load(), submitters*perSubmitter)
	}
	if accepted.Load() == 0 || shed.Load() == 0 {
		t.Errorf("soak exercised nothing: %d accepted, %d shed", accepted.Load(), shed.Load())
	}
	// Every accepted job ran exactly once and reached done.
	total, maxPer := fr.totalRuns()
	if int64(total) != accepted.Load() {
		t.Errorf("%d accepted jobs but %d engine runs (lost or duplicated work)", accepted.Load(), total)
	}
	if maxPer > 1 {
		t.Errorf("a job ran %d times", maxPer)
	}
	acceptedIDs.Range(func(k, _ any) bool {
		st, err := s.Status(k.(string))
		if err != nil {
			t.Errorf("accepted job %v lost: %v", k, err)
			return true
		}
		if st.State != StateDone {
			t.Errorf("job %v finished as %s, want done", k, st.State)
		}
		return true
	})
	if got := s.completed.Load(); got != accepted.Load() {
		t.Errorf("completed counter %d, want %d", got, accepted.Load())
	}
	if got := s.shed.Load(); got != shed.Load() {
		t.Errorf("shed counter %d, want %d", got, shed.Load())
	}
	checkNoGoroutineLeak(t, before)
}

// TestMonitorTick pins the monitor's cadence at the lease settings in
// use: dsmserved's default -lease 15s and the fleet benchmark's -lease
// 1s, short test leases (floored at 5ms), and leases off.
func TestMonitorTick(t *testing.T) {
	for _, c := range []struct {
		ttl, want time.Duration
	}{
		{15 * time.Second, 250 * time.Millisecond},
		{time.Second, 125 * time.Millisecond},
		{40 * time.Millisecond, 5 * time.Millisecond},
		{30 * time.Millisecond, 5 * time.Millisecond},
		{0, 250 * time.Millisecond},
	} {
		if got := monitorTick(c.ttl); got != c.want {
			t.Errorf("monitorTick(%v) = %v, want %v", c.ttl, got, c.want)
		}
	}
}

func TestSubmitValidates(t *testing.T) {
	s := mustScheduler(t, Config{Workers: 1})
	defer s.Drain(context.Background())
	if _, err := s.Submit(Request{Bench: "NoSuch", System: "base"}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("unknown bench: err = %v, want ErrBadRequest", err)
	}
	if _, err := s.Submit(Request{Bench: "FFT", System: "base", NCBytes: 1024}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("base with nc_bytes: err = %v, want ErrBadRequest", err)
	}
}

func mustScheduler(t *testing.T, cfg Config) *Scheduler {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewRejectsSingleRunInstruments(t *testing.T) {
	opt := dsmnc.DefaultOptions()
	opt.Sampler = telemetry.NewSampler(100, 8)
	if _, err := New(Config{Options: opt}); !errors.Is(err, dsmnc.ErrConfig) {
		t.Errorf("sampler: err = %v, want ErrConfig", err)
	}
}

func TestIdempotentSubmit(t *testing.T) {
	s := mustScheduler(t, Config{Workers: 1, QueueDepth: 4})
	gate := make(chan struct{})
	fr := newFakeRunner(gate, 0)
	s.runFn = fr.run

	st1, err := s.Submit(req(0))
	if err != nil {
		t.Fatal(err)
	}
	st2, err := s.Submit(req(0))
	if err != nil {
		t.Fatalf("idempotent resubmit: %v", err)
	}
	if st1.ID != st2.ID {
		t.Fatalf("same request got two IDs: %s vs %s", st1.ID, st2.ID)
	}
	if got := s.deduped.Load(); got != 1 {
		t.Errorf("deduped counter %d, want 1", got)
	}
	close(gate)
	if _, err := s.Wait(context.Background(), st1.ID); err != nil {
		t.Fatal(err)
	}
	// Resubmitting a finished job returns its terminal status, still
	// without re-running.
	st3, err := s.Submit(req(0))
	if err != nil {
		t.Fatal(err)
	}
	if st3.State != StateDone {
		t.Errorf("resubmit of a done job: state %s, want done", st3.State)
	}
	if total, _ := fr.totalRuns(); total != 1 {
		t.Errorf("job ran %d times, want 1", total)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestBackpressure is the bounded-queue acceptance check: with one
// gated worker and a 128-deep queue, 129 jobs are admitted (1 running +
// 128 queued — comfortably over the 100-job bar) and every further
// submission sheds with ErrBusy instead of growing memory.
func TestBackpressure(t *testing.T) {
	s := mustScheduler(t, Config{Workers: 1, QueueDepth: 128, KeepResults: 512})
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	fr := newFakeRunner(gate, 0)
	s.runFn = func(ctx context.Context, j *job) (dsmnc.Result, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		return fr.run(ctx, j)
	}

	first, err := s.Submit(req(0))
	if err != nil {
		t.Fatal(err)
	}
	<-started // the worker holds job 0; the queue is all ours
	var ids []string
	for n := 1; n <= 128; n++ {
		st, err := s.Submit(req(n))
		if err != nil {
			t.Fatalf("submission %d (queue should hold 128): %v", n, err)
		}
		ids = append(ids, st.ID)
	}
	if depth, capacity := s.QueueDepth(); depth != 128 || capacity != 128 {
		t.Fatalf("queue depth %d/%d, want 128/128", depth, capacity)
	}
	for n := 129; n < 140; n++ {
		if _, err := s.Submit(req(n)); !errors.Is(err, ErrBusy) {
			t.Fatalf("submission %d over the bound: err = %v, want ErrBusy", n, err)
		}
	}
	if got := s.shed.Load(); got != 11 {
		t.Errorf("shed counter %d, want 11", got)
	}
	close(gate)
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, id := range append(ids, first.ID) {
		st, err := s.Status(id)
		if err != nil || st.State != StateDone {
			t.Fatalf("queued job %s: state %v err %v, want done", id, st.State, err)
		}
	}
}

func TestCancelQueuedAndRunning(t *testing.T) {
	s := mustScheduler(t, Config{Workers: 1, QueueDepth: 4})
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	fr := newFakeRunner(gate, 0)
	s.runFn = func(ctx context.Context, j *job) (dsmnc.Result, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		return fr.run(ctx, j)
	}
	run, err := s.Submit(req(0))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := s.Submit(req(1))
	if err != nil {
		t.Fatal(err)
	}

	st, err := s.Cancel(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCanceled {
		t.Errorf("canceled queued job state %s, want canceled", st.State)
	}
	if _, err := s.Cancel(run.ID); err != nil {
		t.Fatal(err)
	}
	final, err := s.Wait(context.Background(), run.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateCanceled {
		t.Errorf("canceled running job state %s, want canceled", final.State)
	}
	if final.Error == "" {
		t.Error("canceled job carries no error string")
	}
	if got := s.canceled.Load(); got != 2 {
		t.Errorf("canceled counter %d, want 2", got)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestJobDeadline runs a real simulation with a 1ms deadline: the
// engine must notice mid-run and fail the job with DeadlineExceeded.
func TestJobDeadline(t *testing.T) {
	s := mustScheduler(t, Config{Workers: 1})
	st, err := s.Submit(Request{Bench: "Ocean", System: "base", Scale: "small", TimeoutMS: 1})
	if err != nil {
		t.Fatal(err)
	}
	final, err := s.Wait(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateFailed {
		t.Fatalf("deadline job state %s, want failed", final.State)
	}
	if !strings.Contains(final.Error, context.DeadlineExceeded.Error()) {
		t.Errorf("deadline job error %q, want deadline exceeded", final.Error)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestDrainRejectsAndForcedDrainCancels(t *testing.T) {
	before := runtime.NumGoroutine()
	s := mustScheduler(t, Config{Workers: 1, QueueDepth: 4})
	gate := make(chan struct{}) // never closed: jobs finish only by cancellation
	fr := newFakeRunner(gate, 0)
	s.runFn = fr.run
	a, err := s.Submit(req(0))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Submit(req(1))
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced drain returned %v, want DeadlineExceeded", err)
	}
	if _, err := s.Submit(req(2)); !errors.Is(err, ErrBusy) || !errors.Is(err, ErrDraining) {
		t.Errorf("submit while draining: err = %v, want ErrDraining (wrapping ErrBusy)", err)
	}
	for _, id := range []string{a.ID, b.ID} {
		st, err := s.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateCanceled {
			t.Errorf("job %s after forced drain: state %s, want canceled", id, st.State)
		}
	}
	checkNoGoroutineLeak(t, before)
}

func TestWatchStreamsTransitions(t *testing.T) {
	s := mustScheduler(t, Config{Workers: 1, QueueDepth: 4})
	gate := make(chan struct{})
	fr := newFakeRunner(gate, 0)
	s.runFn = fr.run
	st, err := s.Submit(req(0))
	if err != nil {
		t.Fatal(err)
	}
	ch, err := s.Watch(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	close(gate)
	var states []State
	for u := range ch {
		states = append(states, u.State)
	}
	if len(states) == 0 || states[len(states)-1] != StateDone {
		t.Fatalf("watched states %v, want a stream ending in done", states)
	}
	if _, err := s.Watch("nope"); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("watch unknown: err = %v, want ErrUnknownJob", err)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestResultCacheEviction(t *testing.T) {
	s := mustScheduler(t, Config{Workers: 1, QueueDepth: 8, KeepResults: 2})
	fr := newFakeRunner(nil, 0)
	s.runFn = fr.run
	var ids []string
	for n := 0; n < 4; n++ {
		st, err := s.Submit(req(n))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Wait(context.Background(), st.ID); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	if _, err := s.Status(ids[0]); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("oldest job should be evicted: err = %v, want ErrUnknownJob", err)
	}
	if _, err := s.Status(ids[3]); err != nil {
		t.Errorf("newest job evicted too early: %v", err)
	}
	// An evicted ID is re-runnable: idempotency is bounded by the
	// cache, not forever.
	if _, err := s.Submit(req(0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if total, _ := fr.totalRuns(); total != 5 {
		t.Errorf("engine ran %d times, want 5 (4 originals + 1 evicted rerun)", total)
	}
}

func TestSchedulerMetrics(t *testing.T) {
	var p dsmnc.Progress
	s := mustScheduler(t, Config{Workers: 2, QueueDepth: 8, Progress: &p})
	fr := newFakeRunner(nil, 0)
	s.runFn = fr.run
	reg := telemetry.NewRegistry()
	if err := s.RegisterMetrics(reg); err != nil {
		t.Fatal(err)
	}
	if err := p.RegisterMetricsLabeled(reg, "serve"); err != nil {
		t.Fatal(err)
	}
	st, err := s.Submit(req(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(context.Background(), st.ID); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"dsmnc_serve_submitted_total 1",
		"dsmnc_serve_done_total 1",
		"dsmnc_serve_shed_total 0",
		"dsmnc_serve_queue_depth 0",
		"dsmnc_serve_queue_capacity 8",
		"dsmnc_serve_workers 2",
		"dsmnc_serve_run_seconds_count 1",
		"dsmnc_serve_queue_wait_seconds_count 1",
		`dsmnc_cells_done{job="serve"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", out)
	}
}

func TestStatusResultUnknownJob(t *testing.T) {
	s := mustScheduler(t, Config{Workers: 1})
	defer s.Drain(context.Background())
	if _, err := s.Status("beef"); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("Status: err = %v, want ErrUnknownJob", err)
	}
	if _, _, err := s.Result("beef"); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("Result: err = %v, want ErrUnknownJob", err)
	}
	if _, err := s.Wait(context.Background(), "beef"); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("Wait: err = %v, want ErrUnknownJob", err)
	}
	if _, err := s.Cancel("beef"); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("Cancel: err = %v, want ErrUnknownJob", err)
	}
}

// TestServedRunMatchesDirectRun is the loopback half of the
// determinism contract: one real cell through the scheduler equals a
// direct dsmnc.Run of the same options, field for field.
func TestServedRunMatchesDirectRun(t *testing.T) {
	s := mustScheduler(t, Config{Workers: 2})
	st, err := s.Submit(Request{Bench: "FFT", System: "vb", Scale: "small"})
	if err != nil {
		t.Fatal(err)
	}
	final, err := s.Wait(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Fatalf("job state %s (%s), want done", final.State, final.Error)
	}
	served, _, err := s.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	opt := dsmnc.DefaultOptions()
	opt.Scale = workload.ScaleSmall
	direct, err := dsmnc.Run(workload.ByName("FFT", workload.ScaleSmall), dsmnc.VB(16<<10), opt)
	if err != nil {
		t.Fatal(err)
	}
	if served.Refs != direct.Refs {
		t.Errorf("served Refs %d != direct %d", served.Refs, direct.Refs)
	}
	for _, d := range stats.DiffCounters(served.Counters, direct.Counters) {
		t.Error("served vs direct: " + d.String())
	}
	if fmt.Sprintf("%+v", served.Model) != fmt.Sprintf("%+v", direct.Model) {
		t.Error("served model differs from a direct Run")
	}
}
