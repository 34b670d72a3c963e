// Command dsmworker is one worker node of a dsmnc fleet: a ledgerless,
// leaseless serve.Scheduler behind an epoch-checking wire adapter
// (serve.Worker), dispatched onto by a dsmserved coordinator running
// one RemoteExecutor fault domain per node (docs/serving.md "Running a
// fleet"). The worker holds no durable state — the coordinator's
// ledger is the source of truth — so killing a worker loses nothing:
// its leases expire and the coordinator reassigns the work.
//
// The pool sheds instead of growing: past -slots running plus -queue
// waiting tasks, a dispatch answers 429 and the coordinator retries
// elsewhere with backoff. SIGTERM drains gracefully — intake answers
// 503 while running tasks get -drain to finish (polls keep answering
// so the coordinator collects results right up to exit), then
// stragglers are canceled.
//
// Usage:
//
//	dsmworker [-addr :8091] [-slots N] [-queue N] [-keep 256]
//	          [-drain 30s] [-q]
//
// API (the fleet wire protocol, serve/wire.go):
//
//	POST   /v1/tasks            task dispatch -> 202 admitted, 200 joined,
//	                            409 stale epoch, 412 options-fingerprint
//	                            mismatch, 429 full, 503 draining
//	GET    /v1/tasks/{id}       poll one task at ?epoch=N -> its WireResult;
//	                            404 unknown/evicted, 409 stale epoch
//	DELETE /v1/tasks/{id}       cancel one task at ?epoch=N
//	GET    /readyz              readiness + capacity account (slots/busy/queued)
//	GET    /healthz             liveness: 200 while the process serves HTTP
//	GET    /metrics             Prometheus metrics (dsmnc_serve_worker_*)
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"dsmnc"
	"dsmnc/serve"
	"dsmnc/telemetry"
)

func main() {
	var (
		addr       = flag.String("addr", ":8091", "listen address (:0 picks a free port; the chosen address is printed)")
		slots      = flag.Int("slots", 0, "concurrent task bound; 0 means NumCPU")
		queue      = flag.Int("queue", 0, "tasks admitted beyond the running set before dispatches shed with 429; 0 means 2x slots")
		keep       = flag.Int("keep", 256, "finished tasks (and results) to retain for coordinator polls before evicting the oldest")
		drainGrace = flag.Duration("drain", 30*time.Second, "how long a SIGTERM drain waits before cancelling live tasks")
		quiet      = flag.Bool("q", false, "suppress the startup and shutdown log lines")
	)
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("dsmworker: ")

	cfg := serve.WorkerConfig{
		Slots:       *slots,
		QueueDepth:  *queue,
		KeepResults: *keep,
		Options:     dsmnc.DefaultOptions(),
	}
	worker, err := serve.NewWorker(cfg)
	if err != nil {
		log.Fatal(err)
	}
	// Torture-suite plumbing: DSMNC_WORKER_SLOW_MS delays every task by
	// a fixed amount (respecting cancellation) so the fleet drill can
	// prove a slow-but-reachable worker keeps its leases while a
	// partitioned one loses them.
	if spec := os.Getenv("DSMNC_WORKER_SLOW_MS"); spec != "" {
		ms, err := strconv.Atoi(spec)
		if err != nil || ms < 0 {
			log.Fatalf("DSMNC_WORKER_SLOW_MS=%q: want a non-negative integer", spec)
		}
		worker.SlowDown(time.Duration(ms) * time.Millisecond)
		log.Printf("SLOW MODE (test only): every task delayed %dms", ms)
	}

	reg := telemetry.NewRegistry()
	if err := worker.RegisterMetrics(reg); err != nil {
		log.Fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{
		Handler:           newHandler(worker, reg),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	if !*quiet {
		log.Printf("listening on %s (%d slots)", ln.Addr(), worker.Slots())
	}
	// The port-discovery line for scripts (make fleet-smoke): always on
	// stdout, regardless of -q.
	fmt.Printf("dsmworker listening on %s\n", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		log.Fatal(err)
	case <-ctx.Done():
	}
	if !*quiet {
		log.Printf("draining (up to %s)", *drainGrace)
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainGrace)
	defer cancel()
	forced := worker.Drain(drainCtx)
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	_ = srv.Shutdown(shutCtx)
	if forced != nil {
		log.Fatalf("drain deadline hit; live tasks were canceled: %v", forced)
	}
	if !*quiet {
		log.Print("drained cleanly")
	}
}

// newHandler binds the worker pool to the wire protocol over HTTP. Pure
// framing: every status code and body comes from the serve package's
// Worker, which is what the unit suite drives without a socket.
func newHandler(w *serve.Worker, reg *telemetry.Registry) http.Handler {
	mux := http.NewServeMux()
	answer := func(rw http.ResponseWriter, code int, body []byte) {
		rw.Header().Set("Content-Type", "application/json")
		rw.WriteHeader(code)
		_, _ = rw.Write(body)
	}
	// epochOf parses the ?epoch=N query; the worker refuses epoch 0, so
	// a missing or garbage value routes to the same refusal.
	epochOf := func(r *http.Request) uint64 {
		n, err := strconv.ParseUint(r.URL.Query().Get("epoch"), 10, 64)
		if err != nil {
			return 0
		}
		return n
	}
	mux.HandleFunc("POST /v1/tasks", func(rw http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(http.MaxBytesReader(rw, r.Body, serve.MaxWireRequestBytes+1))
		if err != nil {
			ans, _ := json.Marshal(map[string]string{"error": err.Error()})
			answer(rw, http.StatusBadRequest, ans)
			return
		}
		code, ans := w.Dispatch(body)
		answer(rw, code, ans)
	})
	mux.HandleFunc("GET /v1/tasks/{id}", func(rw http.ResponseWriter, r *http.Request) {
		code, ans := w.Poll(r.PathValue("id"), epochOf(r))
		answer(rw, code, ans)
	})
	mux.HandleFunc("DELETE /v1/tasks/{id}", func(rw http.ResponseWriter, r *http.Request) {
		code, ans := w.CancelTask(r.PathValue("id"), epochOf(r))
		answer(rw, code, ans)
	})
	mux.HandleFunc("GET /readyz", func(rw http.ResponseWriter, r *http.Request) {
		code, ans := w.Ready()
		answer(rw, code, ans)
	})
	mux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(rw, "ok")
	})
	mux.Handle("GET /metrics", reg.Handler())
	return mux
}
