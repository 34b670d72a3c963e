package serve

// RemoteExecutor integration tests: a real Scheduler dispatching onto
// in-process Workers through the wire protocol, with the transport
// replaced by a direct WireClient — no sockets, so the suite runs at
// full speed under -race. The cmd/dsmserved fleet torture suite covers
// the same paths over real HTTP between real processes.

import (
	"context"
	"errors"
	"fmt"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dsmnc"
)

// workerClient drives a Worker directly as a WireClient, with a
// partition switch: while down, every exchange errors like a dead or
// unreachable node.
type workerClient struct {
	w    *Worker
	down atomic.Bool
}

func (c *workerClient) Do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	if c.down.Load() {
		return 0, nil, errors.New("connection refused (simulated partition)")
	}
	if err := ctx.Err(); err != nil {
		return 0, nil, err
	}
	u, err := url.Parse(path)
	if err != nil {
		return 0, nil, err
	}
	switch {
	case method == "POST" && u.Path == "/v1/tasks":
		code, ans := c.w.Dispatch(body)
		return code, ans, nil
	case method == "GET" && u.Path == "/readyz":
		code, ans := c.w.Ready()
		return code, ans, nil
	case (method == "GET" || method == "DELETE") && strings.HasPrefix(u.Path, "/v1/tasks/"):
		id := strings.TrimPrefix(u.Path, "/v1/tasks/")
		epoch, err := strconv.ParseUint(u.Query().Get("epoch"), 10, 64)
		if err != nil {
			return 400, wireError(err), nil
		}
		if method == "DELETE" {
			code, ans := c.w.CancelTask(id, epoch)
			return code, ans, nil
		}
		code, ans := c.w.Poll(id, epoch)
		return code, ans, nil
	}
	return 404, wireError(fmt.Errorf("no route %s %s", method, path)), nil
}

// fleetHarness is one coordinator over N in-process worker nodes.
type fleetHarness struct {
	s       *Scheduler
	workers []*Worker
	clients []*workerClient
	execs   []*RemoteExecutor
}

// newFleetHarness builds nodes running the given synthetic engine and a
// scheduler dispatching onto them with hash routing, short leases and a
// generous retry budget (overridable via mut).
func newFleetHarness(t *testing.T, nodes int, run func(ctx context.Context, wt *job) (dsmnc.Result, error), mut func(*Config)) *fleetHarness {
	t.Helper()
	h := &fleetHarness{}
	var execs []Executor
	for n := 0; n < nodes; n++ {
		w, err := NewWorker(WorkerConfig{Slots: 2, runFn: run})
		if err != nil {
			t.Fatal(err)
		}
		c := &workerClient{w: w}
		e := NewRemoteExecutor(fmt.Sprintf("node-%d", n), c)
		if _, err := e.Probe(context.Background()); err != nil {
			t.Fatal(err)
		}
		h.workers = append(h.workers, w)
		h.clients = append(h.clients, c)
		h.execs = append(h.execs, e)
		execs = append(execs, e)
	}
	cfg := Config{
		Workers: 4, Executors: execs,
		LeaseTTL: 150 * time.Millisecond, MaxRetries: 6, retryBackoff: 10 * time.Millisecond,
		// The scheduler-side engine seam is unused — execution happens
		// on the workers — but keep it synthetic for safety.
		runFn: func(ctx context.Context, j *job) (dsmnc.Result, error) { return dsmnc.Result{}, nil },
	}
	if mut != nil {
		mut(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h.s = s
	return h
}

// drain drains the coordinator, then every node: a worker's pool lives
// until its Drain, like any scheduler's.
func (h *fleetHarness) drain(ctx context.Context) error {
	errs := []error{h.s.Drain(ctx)}
	for _, w := range h.workers {
		errs = append(errs, w.Drain(ctx))
	}
	return errors.Join(errs...)
}

func TestRemoteExecutorCompletesJobs(t *testing.T) {
	before := runtime.NumGoroutine()
	h := newFleetHarness(t, 2, func(ctx context.Context, wt *job) (dsmnc.Result, error) {
		return dsmnc.Result{System: wt.sys.Name, Bench: wt.bench.Name, Refs: int64(wt.req.NCBytes)}, nil
	}, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for n := 0; n < 8; n++ {
		st, err := h.s.Submit(req(n))
		if err != nil {
			t.Fatal(err)
		}
		fin, err := h.s.Wait(ctx, st.ID)
		if err != nil || fin.State != StateDone {
			t.Fatalf("job %d: %v / %v", n, fin, err)
		}
		res, _, err := h.s.Result(st.ID)
		if err != nil || res.Refs != int64(req(n).NCBytes) {
			t.Fatalf("job %d result %+v / %v; want the worker's payload", n, res, err)
		}
	}
	if got := h.s.reassigned.Load(); got != 0 {
		t.Fatalf("healthy fleet reassigned %d jobs", got)
	}
	// Fleet capacity reached the scheduler through the probes.
	if got := h.s.fleetSlots(); got != 4 {
		t.Fatalf("fleetSlots = %d; want 2 nodes x 2 slots", got)
	}
	if err := h.drain(ctx); err != nil {
		t.Fatal(err)
	}
	checkNoGoroutineLeak(t, before)
}

// TestRemoteExecutorPartitionReassigns: a node that stops answering
// mid-run loses the lease at the TTL and the job completes on the other
// node — the unit-scale version of the fleet torture's kill drill.
func TestRemoteExecutorPartitionReassigns(t *testing.T) {
	before := runtime.NumGoroutine()
	gate := make(chan struct{})
	h := newFleetHarness(t, 2, func(ctx context.Context, wt *job) (dsmnc.Result, error) {
		select {
		case <-gate:
			return dsmnc.Result{Refs: 42}, nil
		case <-ctx.Done():
			return dsmnc.Result{}, ctx.Err()
		}
	}, nil)
	st, err := h.s.Submit(req(0))
	if err != nil {
		t.Fatal(err)
	}
	// Find the node the job landed on and partition it.
	deadline := time.Now().Add(5 * time.Second)
	var homeIdx = -1
	for homeIdx < 0 {
		for i, w := range h.workers {
			w.s.mu.Lock()
			_, held := w.s.jobs[st.ID]
			w.s.mu.Unlock()
			if held {
				homeIdx = i
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("job never reached a worker")
		}
	}
	h.clients[homeIdx].down.Store(true)
	// Unblock the engine everywhere; the partitioned node's result can
	// never reach the coordinator, the other node's does.
	close(gate)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	fin, err := h.s.Wait(ctx, st.ID)
	if err != nil || fin.State != StateDone {
		t.Fatalf("job after partition: %+v / %v", fin, err)
	}
	res, _, err := h.s.Result(st.ID)
	if err != nil || res.Refs != 42 {
		t.Fatalf("result after partition: %+v / %v", res, err)
	}
	if got := h.s.leaseLost.Load(); got == 0 {
		t.Fatal("partition did not register as a lease loss")
	}
	if fin.Attempt < 2 {
		t.Fatalf("job finished on attempt %d; want a reassignment", fin.Attempt)
	}
	if err := h.drain(ctx); err != nil {
		t.Fatal(err)
	}
	checkNoGoroutineLeak(t, before)
}

// TestRemoteExecutorSlowIsNotDead: a worker slower than the lease TTL
// but still answering polls keeps renewing the lease and finishes on
// the first attempt — slowness must not read as death.
func TestRemoteExecutorSlowIsNotDead(t *testing.T) {
	before := runtime.NumGoroutine()
	h := newFleetHarness(t, 1, func(ctx context.Context, wt *job) (dsmnc.Result, error) {
		select {
		case <-time.After(600 * time.Millisecond): // 4x the lease TTL
			return dsmnc.Result{Refs: 1}, nil
		case <-ctx.Done():
			return dsmnc.Result{}, ctx.Err()
		}
	}, nil)
	st, err := h.s.Submit(req(0))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	fin, err := h.s.Wait(ctx, st.ID)
	if err != nil || fin.State != StateDone {
		t.Fatalf("slow job: %+v / %v", fin, err)
	}
	if fin.Attempt != 1 || h.s.reassigned.Load() != 0 {
		t.Fatalf("slow-but-alive worker was treated as dead: attempt %d, %d reassignments",
			fin.Attempt, h.s.reassigned.Load())
	}
	if err := h.drain(ctx); err != nil {
		t.Fatal(err)
	}
	checkNoGoroutineLeak(t, before)
}

// TestRemoteExecutorShedReassigns: a full worker sheds the dispatch
// with 429, which surfaces as a lease surrender and the job retries
// until a slot frees — shed is backpressure, not failure.
func TestRemoteExecutorShedReassigns(t *testing.T) {
	before := runtime.NumGoroutine()
	gate := make(chan struct{})
	h := newFleetHarness(t, 1, func(ctx context.Context, wt *job) (dsmnc.Result, error) {
		select {
		case <-gate:
			return dsmnc.Result{Refs: 1}, nil
		case <-ctx.Done():
			return dsmnc.Result{}, ctx.Err()
		}
	}, nil)
	// Fill the node (2 slots + 4 queue) with direct dispatches the
	// coordinator knows nothing about.
	w := h.workers[0]
	for n := 100; n < 106; n++ {
		body, _ := dispatchFor(t, w, n, 1, 1)
		if code, ans := w.Dispatch(body); code != 202 {
			t.Fatalf("fill dispatch %d = %d: %s", n, code, ans)
		}
	}
	st, err := h.s.Submit(req(0))
	if err != nil {
		t.Fatal(err)
	}
	// The dispatch must be shed at least once before a slot frees.
	deadline := time.Now().Add(5 * time.Second)
	for w.shed.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("full worker never shed the dispatch")
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(gate)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	fin, err := h.s.Wait(ctx, st.ID)
	if err != nil || fin.State != StateDone {
		t.Fatalf("job after shed: %+v / %v", fin, err)
	}
	if err := h.drain(ctx); err != nil {
		t.Fatal(err)
	}
	checkNoGoroutineLeak(t, before)
}

// TestRemoteExecutorConfigMismatchIsPermanent: a worker whose base
// options cannot reproduce the coordinator's fingerprint refuses the
// dispatch with 412 and the job fails permanently — a misconfigured
// fleet fails loudly instead of burning the retry budget.
func TestRemoteExecutorConfigMismatchIsPermanent(t *testing.T) {
	before := runtime.NumGoroutine()
	mism := dsmnc.DefaultOptions()
	mism.L1Bytes *= 2
	w, err := NewWorker(WorkerConfig{Slots: 1, Options: mism,
		runFn: func(ctx context.Context, wt *job) (dsmnc.Result, error) { return dsmnc.Result{}, nil }})
	if err != nil {
		t.Fatal(err)
	}
	e := NewRemoteExecutor("node-misconf", &workerClient{w: w})
	s, err := New(Config{Workers: 1, Executors: []Executor{e},
		LeaseTTL: 150 * time.Millisecond, MaxRetries: 3, retryBackoff: 10 * time.Millisecond,
		runFn: func(ctx context.Context, j *job) (dsmnc.Result, error) { return dsmnc.Result{}, nil }})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Submit(req(0))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	fin, err := s.Wait(ctx, st.ID)
	if err != nil || fin.State != StateFailed {
		t.Fatalf("mismatched job: %+v / %v; want a permanent failure", fin, err)
	}
	if !strings.Contains(fin.Error, "412") && !strings.Contains(fin.Error, "fingerprint") {
		t.Fatalf("failure %q does not surface the config mismatch", fin.Error)
	}
	if fin.Attempt != 1 {
		t.Fatalf("mismatch burned %d attempts; permanent errors must not retry", fin.Attempt)
	}
	if err := errors.Join(s.Drain(ctx), w.Drain(ctx)); err != nil {
		t.Fatal(err)
	}
	checkNoGoroutineLeak(t, before)
}

// TestRemoteExecutorCancelPropagates: cancelling a job on the
// coordinator cancels the worker-side task.
func TestRemoteExecutorCancelPropagates(t *testing.T) {
	before := runtime.NumGoroutine()
	h := newFleetHarness(t, 1, func(ctx context.Context, wt *job) (dsmnc.Result, error) {
		<-ctx.Done()
		return dsmnc.Result{}, ctx.Err()
	}, nil)
	st, err := h.s.Submit(req(0))
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the worker holds the task, then cancel on the
	// coordinator.
	w := h.workers[0]
	deadline := time.Now().Add(5 * time.Second)
	for {
		w.s.mu.Lock()
		_, held := w.s.jobs[st.ID]
		w.s.mu.Unlock()
		if held {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never reached the worker")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, err := h.s.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	fin, err := h.s.Wait(ctx, st.ID)
	if err != nil || fin.State != StateCanceled {
		t.Fatalf("canceled job: %+v / %v", fin, err)
	}
	// The worker's task settles canceled too (via the propagated
	// cancel), not done.
	deadline = time.Now().Add(5 * time.Second)
	for {
		w.s.mu.Lock()
		wt, held := w.s.jobs[st.ID]
		state := StateQueued
		if held {
			state = wt.state
		}
		w.s.mu.Unlock()
		if held && state == StateCanceled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker task state %s; want canceled", state)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := h.drain(ctx); err != nil {
		t.Fatal(err)
	}
	checkNoGoroutineLeak(t, before)
}

// TestRemoteExecutorProbeDraining: a draining worker still answers the
// probe (503) with a valid capacity document.
func TestRemoteExecutorProbeDraining(t *testing.T) {
	w, err := NewWorker(WorkerConfig{Slots: 3,
		runFn: func(ctx context.Context, wt *job) (dsmnc.Result, error) { return dsmnc.Result{}, nil }})
	if err != nil {
		t.Fatal(err)
	}
	e := NewRemoteExecutor("node", &workerClient{w: w})
	rd, err := e.Probe(context.Background())
	if err != nil || !rd.Ready || rd.Slots != 3 || e.Slots() != 3 {
		t.Fatalf("probe: %+v / %v (slots %d)", rd, err, e.Slots())
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := w.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	rd, err = e.Probe(context.Background())
	if err != nil || rd.Ready || rd.Reason != "draining" {
		t.Fatalf("probe of a draining worker: %+v / %v", rd, err)
	}
}
