package serve

// Unit tests for the worker-side task pool: admission, the shed bound,
// epoch join/supersede/stale semantics, fingerprint verification,
// cancellation, drain, and the metrics surface — all by direct method
// call, no transport.

import (
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
	"dsmnc/telemetry"
)

// mustWorker builds a worker whose runFn is the given synthetic engine.
func mustWorker(t *testing.T, cfg WorkerConfig, run func(ctx context.Context, wt *job) (dsmnc.Result, error)) *Worker {
	t.Helper()
	cfg.runFn = run
	w, err := NewWorker(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// dispatchFor renders the wire dispatch of req(n) at the given epoch,
// computing the ID and fingerprint exactly as a coordinator would.
func dispatchFor(t *testing.T, w *Worker, n int, attempt int, epoch uint64) ([]byte, string) {
	t.Helper()
	r := req(n).normalized()
	_, _, opt, err := r.compile(w.s.cfg.Options)
	if err != nil {
		t.Fatal(err)
	}
	id := jobID(r, opt)
	wr := WireRequest{ID: id, Attempt: attempt, Epoch: epoch, Fingerprint: opt.Fingerprint(), Request: r}
	body, err := wr.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return body, id
}

// pollUntilTerminal polls the worker until the task settles.
func pollUntilTerminal(t *testing.T, w *Worker, id string, epoch uint64) WireResult {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, body := w.Poll(id, epoch)
		if code != 200 {
			t.Fatalf("Poll(%s) = %d: %s", id, code, body)
		}
		res, err := ParseWireResult(body)
		if err != nil {
			t.Fatalf("Poll(%s) answered garbage: %v", id, err)
		}
		if res.State.Terminal() {
			return res
		}
		if time.Now().After(deadline) {
			t.Fatalf("task %s never settled (state %s)", id, res.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestWorkerLifecycle(t *testing.T) {
	w := mustWorker(t, WorkerConfig{Slots: 2}, func(ctx context.Context, wt *job) (dsmnc.Result, error) {
		return dsmnc.Result{System: wt.sys.Name, Bench: wt.bench.Name, Refs: 7}, nil
	})
	body, id := dispatchFor(t, w, 0, 1, 1)
	code, ans := w.Dispatch(body)
	if code != 202 {
		t.Fatalf("Dispatch = %d: %s", code, ans)
	}
	first, err := ParseWireResult(ans)
	if err != nil || first.ID != id || first.State.Terminal() {
		t.Fatalf("dispatch answer %+v / %v; want a live status for %s", first, err, id)
	}
	res := pollUntilTerminal(t, w, id, 1)
	if res.State != StateDone || res.Result == nil || res.Result.Refs != 7 {
		t.Fatalf("terminal poll %+v; want done with the engine's result", res)
	}
	// A duplicate dispatch joins the finished task and answers its
	// result immediately — the deterministic engine ran once.
	code, ans = w.Dispatch(body)
	if code != 200 {
		t.Fatalf("duplicate Dispatch = %d: %s", code, ans)
	}
	if again, err := ParseWireResult(ans); err != nil || again.State != StateDone {
		t.Fatalf("joined dispatch answered %+v / %v; want the done result", again, err)
	}
	if got := w.s.submitted.Load(); got != 1 {
		t.Fatalf("admitted %d tasks; the duplicate must join, not re-run", got)
	}
	if got := w.s.deduped.Load(); got != 1 {
		t.Fatalf("joined = %d; want 1", got)
	}
}

func TestWorkerShedsAtCapacity(t *testing.T) {
	gate := make(chan struct{})
	w := mustWorker(t, WorkerConfig{Slots: 1, QueueDepth: 1}, func(ctx context.Context, wt *job) (dsmnc.Result, error) {
		select {
		case <-gate:
			return dsmnc.Result{Refs: 1}, nil
		case <-ctx.Done():
			return dsmnc.Result{}, ctx.Err()
		}
	})
	// Slot 1 runs, slot 2 queues, slot 3 sheds.
	for n := 0; n < 2; n++ {
		body, _ := dispatchFor(t, w, n, 1, 1)
		if code, ans := w.Dispatch(body); code != 202 {
			t.Fatalf("dispatch %d = %d: %s", n, code, ans)
		}
	}
	body, _ := dispatchFor(t, w, 2, 1, 1)
	code, ans := w.Dispatch(body)
	if code != 429 {
		t.Fatalf("dispatch past the bound = %d: %s; want 429", code, ans)
	}
	if w.shed.Load() != 1 {
		t.Fatalf("shed = %d; want 1", w.shed.Load())
	}
	// Shed is not a state: once the pool drains, the same dispatch is
	// admitted.
	close(gate)
	var id string
	deadline := time.Now().Add(10 * time.Second)
	for {
		var c int
		var a []byte
		c, a = w.Dispatch(body)
		if c == 202 {
			wr, err := ParseWireResult(a)
			if err != nil {
				t.Fatal(err)
			}
			id = wr.ID
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("dispatch still refused (%d: %s) after the pool drained", c, a)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if res := pollUntilTerminal(t, w, id, 1); res.State != StateDone {
		t.Fatalf("post-shed task settled %s", res.State)
	}
}

func TestWorkerEpochSemantics(t *testing.T) {
	gate := make(chan struct{})
	w := mustWorker(t, WorkerConfig{Slots: 1}, func(ctx context.Context, wt *job) (dsmnc.Result, error) {
		select {
		case <-gate:
			return dsmnc.Result{Refs: 1}, nil
		case <-ctx.Done():
			return dsmnc.Result{}, ctx.Err()
		}
	})
	body3, id := dispatchFor(t, w, 0, 2, 3)
	if code, ans := w.Dispatch(body3); code != 202 {
		t.Fatalf("Dispatch(epoch 3) = %d: %s", code, ans)
	}
	// A stale-epoch dispatch, poll, and cancel are all refused.
	body2, _ := dispatchFor(t, w, 0, 1, 2)
	if code, _ := w.Dispatch(body2); code != 409 {
		t.Fatalf("stale dispatch = %d; want 409", code)
	}
	if code, _ := w.Poll(id, 2); code != 409 {
		t.Fatalf("stale poll = %d; want 409", code)
	}
	if code, _ := w.CancelTask(id, 2); code != 409 {
		t.Fatalf("stale cancel = %d; want 409", code)
	}
	if w.stale.Load() != 3 {
		t.Fatalf("stale = %d; want 3", w.stale.Load())
	}
	// A newer-epoch dispatch joins and bumps the held epoch; the old
	// epoch's polls go stale from that moment.
	body5, _ := dispatchFor(t, w, 0, 3, 5)
	if code, ans := w.Dispatch(body5); code != 200 {
		t.Fatalf("newer dispatch = %d: %s", code, ans)
	}
	if code, _ := w.Poll(id, 3); code != 409 {
		t.Fatalf("poll at the superseded epoch = %d; want 409", code)
	}
	close(gate)
	if res := pollUntilTerminal(t, w, id, 5); res.State != StateDone || res.Epoch != 5 {
		t.Fatalf("terminal %+v; want done at epoch 5", res)
	}
	// Unknown tasks are 404 — what a coordinator sees after a worker
	// restart, and treats as a lost lease.
	if code, _ := w.Poll("ffffffffffffffff", 1); code != 404 {
		t.Fatalf("unknown poll = %d; want 404", code)
	}
	if code, _ := w.CancelTask("ffffffffffffffff", 1); code != 404 {
		t.Fatalf("unknown cancel = %d; want 404", code)
	}
}

func TestWorkerFingerprintMismatch(t *testing.T) {
	w := mustWorker(t, WorkerConfig{Slots: 1}, func(ctx context.Context, wt *job) (dsmnc.Result, error) {
		return dsmnc.Result{}, nil
	})
	r := req(0).normalized()
	_, _, opt, err := r.compile(w.s.cfg.Options)
	if err != nil {
		t.Fatal(err)
	}
	wr := WireRequest{ID: jobID(r, opt), Attempt: 1, Epoch: 1, Fingerprint: "00000000deadbeef", Request: r}
	body, err := wr.Encode()
	if err != nil {
		t.Fatal(err)
	}
	code, ans := w.Dispatch(body)
	if code != 412 {
		t.Fatalf("mismatched dispatch = %d: %s; want 412", code, ans)
	}
	if !strings.Contains(string(ans), "fingerprint") {
		t.Fatalf("412 body %q does not explain the mismatch", ans)
	}
	if w.mismatch.Load() != 1 || w.s.submitted.Load() != 0 {
		t.Fatalf("mismatch=%d admitted=%d; the dispatch must be refused untried", w.mismatch.Load(), w.s.submitted.Load())
	}
}

func TestWorkerCancelAndDrain(t *testing.T) {
	before := runtime.NumGoroutine()
	var started atomic.Int64
	w := mustWorker(t, WorkerConfig{Slots: 2}, func(ctx context.Context, wt *job) (dsmnc.Result, error) {
		started.Add(1)
		<-ctx.Done()
		return dsmnc.Result{}, ctx.Err()
	})
	body, id := dispatchFor(t, w, 0, 1, 1)
	if code, _ := w.Dispatch(body); code != 202 {
		t.Fatal("dispatch refused")
	}
	if code, _ := w.CancelTask(id, 1); code != 200 {
		t.Fatal("cancel refused")
	}
	if res := pollUntilTerminal(t, w, id, 1); res.State != StateCanceled {
		t.Fatalf("canceled task settled %s", res.State)
	}
	// Drain: a running task is canceled once the drain context ends,
	// intake answers 503, polls keep answering.
	body2, id2 := dispatchFor(t, w, 1, 1, 1)
	if code, _ := w.Dispatch(body2); code != 202 {
		t.Fatal("dispatch refused")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := w.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain with a live task = %v; want the deadline forcing cancellation", err)
	}
	body3, _ := dispatchFor(t, w, 2, 1, 1)
	if code, _ := w.Dispatch(body3); code != 503 {
		t.Fatalf("post-drain dispatch = %d; want 503", code)
	}
	if res := pollUntilTerminal(t, w, id2, 1); res.State != StateCanceled {
		t.Fatalf("drained task settled %s; want canceled", res.State)
	}
	if rc, _ := w.Ready(); rc != 503 {
		t.Fatalf("Ready while draining = %d; want 503", rc)
	}
	checkNoGoroutineLeak(t, before)
}

func TestWorkerEvictsTerminalTasks(t *testing.T) {
	w := mustWorker(t, WorkerConfig{Slots: 1, KeepResults: 2}, func(ctx context.Context, wt *job) (dsmnc.Result, error) {
		return dsmnc.Result{Refs: 1}, nil
	})
	var first string
	for n := 0; n < 3; n++ {
		body, id := dispatchFor(t, w, n, 1, 1)
		if n == 0 {
			first = id
		}
		if code, ans := w.Dispatch(body); code != 202 {
			t.Fatalf("dispatch %d = %d: %s", n, code, ans)
		}
		pollUntilTerminal(t, w, id, 1)
	}
	if code, _ := w.Poll(first, 1); code != 404 {
		t.Fatalf("evicted task polls %d; want 404", code)
	}
}

func TestWorkerReadyAndMetrics(t *testing.T) {
	gate := make(chan struct{})
	w := mustWorker(t, WorkerConfig{Slots: 2, QueueDepth: 2}, func(ctx context.Context, wt *job) (dsmnc.Result, error) {
		select {
		case <-gate:
			return dsmnc.Result{Refs: 1}, nil
		case <-ctx.Done():
			return dsmnc.Result{}, ctx.Err()
		}
	})
	ids := make([]string, 3)
	for n := 0; n < 3; n++ {
		body, id := dispatchFor(t, w, n, 1, 1)
		ids[n] = id
		if code, _ := w.Dispatch(body); code != 202 {
			t.Fatal("dispatch refused")
		}
	}
	// Wait for both slots to fill, leaving one task queued.
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, body := w.Ready()
		if code != 200 {
			t.Fatalf("Ready = %d: %s", code, body)
		}
		rd, err := ParseWireReady(body)
		if err != nil {
			t.Fatal(err)
		}
		if rd.Slots != 2 {
			t.Fatalf("readiness reports %d slots; want 2", rd.Slots)
		}
		if rd.Busy == 2 && rd.Queued == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("capacity account never converged: %+v", rd)
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(gate)
	for _, id := range ids {
		pollUntilTerminal(t, w, id, 1)
	}
	reg := telemetry.NewRegistry()
	if err := w.RegisterMetrics(reg); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	// perfbench merges a coordinator's and a worker's scrapes into one
	// map: a scheduler series exported here would overwrite the
	// coordinator's value under the same name.
	for _, line := range strings.Split(text, "\n") {
		if line != "" && !strings.HasPrefix(line, "#") && !strings.HasPrefix(line, "dsmnc_serve_worker_") {
			t.Fatalf("worker metrics export a non-worker series: %q", line)
		}
	}
	for _, want := range []string{
		"dsmnc_serve_worker_slots 2",
		"dsmnc_serve_worker_tasks_total 3",
		"dsmnc_serve_worker_done_total 3",
		"dsmnc_serve_worker_busy 0",
		"dsmnc_serve_worker_draining 0",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics text lacks %q:\n%s", want, text)
		}
	}
}

func TestWorkerRejectsGarbageAndUncompilable(t *testing.T) {
	w := mustWorker(t, WorkerConfig{Slots: 1}, func(ctx context.Context, wt *job) (dsmnc.Result, error) {
		return dsmnc.Result{}, nil
	})
	if code, ans := w.Dispatch([]byte("\x00\xff")); code != 400 {
		t.Fatalf("garbage dispatch = %d: %s; want 400", code, ans)
	}
	// Valid wire shape and a valid request, but dispatched under an
	// options fingerprint this worker's base options do not produce:
	// the worker must refuse it rather than compute a different cell.
	r := Request{Bench: "FFT", System: "nc", Scale: "test"}
	wr := WireRequest{ID: "0123456789abcdef", Attempt: 1, Epoch: 1, Fingerprint: "0123456789abcdef", Request: r}
	body, err := wr.Encode()
	if err != nil {
		t.Fatal(err)
	}
	code, ans := w.Dispatch(body)
	if code != 400 && code != 412 {
		t.Fatalf("uncompilable dispatch = %d: %s; want a refusal", code, ans)
	}
	if w.s.submitted.Load() != 0 {
		t.Fatal("a refused dispatch must not admit a task")
	}
}

func TestWorkerFailedTask(t *testing.T) {
	w := mustWorker(t, WorkerConfig{Slots: 1}, func(ctx context.Context, wt *job) (dsmnc.Result, error) {
		return dsmnc.Result{}, fmt.Errorf("engine exploded on %s", wt.id)
	})
	body, id := dispatchFor(t, w, 0, 1, 1)
	if code, _ := w.Dispatch(body); code != 202 {
		t.Fatal("dispatch refused")
	}
	res := pollUntilTerminal(t, w, id, 1)
	if res.State != StateFailed || !strings.Contains(res.Error, "engine exploded") {
		t.Fatalf("failed task polls %+v; want the engine error", res)
	}
	if w.s.failed.Load() != 1 {
		t.Fatalf("failed = %d; want 1", w.s.failed.Load())
	}
}

// TestWorkerConcurrentJoins: racing dispatches of one task at one epoch
// admit it once and join every other onto it — one engine run.
func TestWorkerConcurrentJoins(t *testing.T) {
	var runs atomic.Int64
	w := mustWorker(t, WorkerConfig{Slots: 2}, func(ctx context.Context, j *job) (dsmnc.Result, error) {
		runs.Add(1)
		return dsmnc.Result{Refs: 1}, nil
	})
	body, id := dispatchFor(t, w, 0, 1, 1)
	const n = 8
	codes := make(chan int, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			code, _ := w.Dispatch(body)
			codes <- code
		}()
	}
	close(start)
	wg.Wait()
	close(codes)
	count := map[int]int{}
	for code := range codes {
		count[code]++
	}
	if count[202] != 1 || count[200] != n-1 {
		t.Fatalf("dispatch answers %v; want one 202 and %d 200s", count, n-1)
	}
	if res := pollUntilTerminal(t, w, id, 1); res.State != StateDone {
		t.Fatalf("joined task settled %s", res.State)
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("engine ran %d times; joins must share one run", got)
	}
	reg := telemetry.NewRegistry()
	if err := w.RegisterMetrics(reg); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("dsmnc_serve_worker_joined_total %d", n-1); !strings.Contains(sb.String(), want) {
		t.Fatalf("metrics text lacks %q:\n%s", want, sb.String())
	}
}
