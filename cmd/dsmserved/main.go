// Command dsmserved serves the dsmnc simulator as a service: a small
// JSON API over the serve package's bounded job scheduler. Submissions
// beyond the queue bound are shed with 429 and a Retry-After instead of
// buffered without bound, identical submissions coalesce onto one job,
// and SIGTERM drains the pool gracefully before exiting. A served cell
// runs through exactly the machinery a local run uses, so its stats are
// byte-identical to dsmsim's (docs/serving.md).
//
// Usage:
//
//	dsmserved [-addr :8080] [-workers N] [-queue 256] [-timeout 0]
//	          [-max-timeout 0] [-keep 1024] [-drain 30s] [-q]
//	          [-ledger path] [-ledger-compact N] [-watchdog 3]
//	          [-lease 15s] [-retries 2]
//	          [-fleet host:port,host:port,...]
//
// With -ledger the server is crash-safe: every acknowledged job is
// durably journaled before the client sees its ID, and a restart
// replays the ledger — finished jobs come back with their results,
// unfinished jobs re-run under the same IDs (with their reassignment
// counts intact). /readyz answers 503 ("recovering") while more
// replayed jobs wait in the run queue than -queue plus -workers admit.
// The kill-torture suite (make crash-smoke)
// SIGKILLs this binary at every ledger crash point and verifies nothing
// acknowledged is lost.
//
// Execution runs on the serve package's lease-based executor fabric
// (docs/robustness.md §6): -lease sets the heartbeat TTL after which a
// silent attempt is revoked and reassigned, and -retries bounds the
// reassignments.
//
// With -fleet the coordinator stops running cells itself and dispatches
// them to dsmworker nodes over the fleet wire protocol, one
// RemoteExecutor fault domain per node. Jobs route to nodes by
// consistent hash of their idempotent fingerprint (any coordinator
// replica routes the same spec to the same node; a node join/leave
// reroutes only ~1/N of fingerprints), a node that goes silent past
// -lease loses its leases and the work reassigns elsewhere, and the
// fleet-wide slot total sizes both the dispatch pool (when -workers is
// unset) and the Retry-After estimate on 429s. The fleet torture suite
// (make fleet-smoke) SIGKILLs and partitions real worker processes
// under this wiring and verifies no acknowledged job is lost and the
// golden corpus replays byte-identically.
//
// API:
//
//	POST   /v1/jobs             submit a job request  -> 202 (or 200 when coalesced)
//	GET    /v1/jobs/{id}        job status
//	GET    /v1/jobs/{id}/result terminal status + full result
//	GET    /v1/jobs/{id}/stream status transitions as server-sent events
//	DELETE /v1/jobs/{id}        cancel
//	GET    /metrics             Prometheus metrics (dsmnc_serve_*)
//	GET    /healthz             liveness: 200 while the process serves HTTP
//	GET    /readyz              readiness: 200 ("ok"/"degraded") when traffic
//	                            should route here, 503 with the reason
//	                            ("recovering", "draining", "quarantined") when not
//
// A design-space exploration is a client of this API, not a route of
// its own: dsmexplore -server submits every configuration as an
// ordinary /v1/jobs job and folds the results into its frontier, so
// its cells coalesce with other submissions, land in the ledger and
// recover across a crash like any job (docs/explore.md).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"dsmnc"
	"dsmnc/serve"
	"dsmnc/telemetry"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address (:0 picks a free port; the chosen address is printed)")
		workers    = flag.Int("workers", 0, "worker pool size; 0 means NumCPU")
		queue      = flag.Int("queue", 256, "queue bound; submissions beyond it get 429")
		timeout    = flag.Duration("timeout", 0, "default per-job deadline for requests without timeout_ms; 0 means none")
		maxTimeout = flag.Duration("max-timeout", 0, "cap on request-supplied deadlines; 0 means uncapped")
		keep       = flag.Int("keep", 1024, "finished jobs (and results) to retain before evicting the oldest")
		drainGrace = flag.Duration("drain", 30*time.Second, "how long a SIGTERM drain waits before cancelling live jobs")
		ledgerPath = flag.String("ledger", "", "job ledger path; empty disables crash recovery")
		compactN   = flag.Int("ledger-compact", 0, "terminal records between ledger compactions; 0 means 2x -keep")
		watchdog   = flag.Float64("watchdog", 3, "force-fail a job once it runs this multiple of its deadline; 0 disables")
		leaseTTL   = flag.Duration("lease", 15*time.Second, "executor lease TTL: a running attempt silent this long is revoked and reassigned; 0 disables leases")
		retries    = flag.Int("retries", 2, "reassignments after lease losses before a job fails; 0 disables retries")
		fleet      = flag.String("fleet", "", "comma-separated dsmworker addresses (host:port,...); execution moves to the fleet, one fault domain per node")
		quiet      = flag.Bool("q", false, "suppress the startup and shutdown log lines")
	)
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("dsmserved: ")

	// The kill-torture suite arms a crash point through the environment
	// before anything touches the ledger.
	if spec := os.Getenv("DSMNC_SERVE_CRASH"); spec != "" {
		if err := armCrashHook(spec); err != nil {
			log.Fatal(err)
		}
	}

	var ledger *serve.Ledger
	if *ledgerPath != "" {
		l, err := serve.OpenLedger(*ledgerPath)
		if err != nil {
			log.Fatal(err)
		}
		ledger = l
	}

	var progress dsmnc.Progress
	baseOpt := dsmnc.DefaultOptions()
	cfg := serve.Config{
		Options:        baseOpt,
		Workers:        *workers,
		QueueDepth:     *queue,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		KeepResults:    *keep,
		Ledger:         ledger,
		WatchdogFactor: *watchdog,
		CompactEvery:   *compactN,
		Progress:       &progress,
		LeaseTTL:       *leaseTTL,
		MaxRetries:     *retries,
	}
	// The flag's 0 means "off"; the Config's 0 means "default".
	if *leaseTTL == 0 {
		cfg.LeaseTTL = -1
	}
	if *retries == 0 {
		cfg.MaxRetries = -1
	}
	if *fleet != "" {
		addrs, err := parseFleet(*fleet)
		if err != nil {
			log.Fatal(err)
		}
		execs, slots, err := buildFleet(addrs)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Executors = execs
		// Unless pinned, size the dispatch pool to what the fleet can
		// actually run: local goroutines beyond the remote slot total
		// would just queue on workers and be shed back.
		if *workers == 0 && slots > 0 {
			cfg.Workers = slots
		}
		log.Printf("fleet: %d workers, %d slots", len(execs), slots)
	}
	sched, err := serve.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if ledger != nil && !*quiet {
		restored, replayed := sched.RecoveryStats()
		log.Printf("ledger %s: restored %d finished jobs, re-enqueued %d unfinished",
			*ledgerPath, restored, replayed)
	}
	reg := telemetry.NewRegistry()
	if err := sched.RegisterMetrics(reg); err != nil {
		log.Fatal(err)
	}
	if err := progress.RegisterMetricsLabeled(reg, "serve"); err != nil {
		log.Fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	// Slow-client hygiene: bound reads and idle keep-alive connections so
	// a stalled peer cannot pin a connection forever. Writes are bounded
	// too; the SSE stream exempts itself with per-write deadlines.
	srv := &http.Server{
		Handler:           newHandler(sched, reg),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	if !*quiet {
		log.Printf("listening on %s", ln.Addr())
	}
	// The port-discovery line for scripts (make serve-smoke): always on
	// stdout, regardless of -q.
	fmt.Printf("dsmserved listening on %s\n", ln.Addr())

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
	forced := sched.Drain(drainCtx)
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	_ = srv.Shutdown(shutCtx)
	if forced != nil {
		log.Fatalf("drain deadline hit; live jobs were canceled: %v", forced)
	}
	if !*quiet {
		log.Print("drained cleanly")
	}
}

// newHandler binds the scheduler and metrics registry to the HTTP API.
// It is transport glue only — every decision (validation, backpressure,
// idempotency, deadlines) lives in the serve package, which is what the
// loopback acceptance tests drive through this handler.
func newHandler(s *serve.Scheduler, reg *telemetry.Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, serve.MaxRequestBytes))
		if err != nil {
			writeError(w, s, fmt.Errorf("%w: %v", serve.ErrBadRequest, err))
			return
		}
		req, err := serve.ParseRequest(body)
		if err != nil {
			writeError(w, s, err)
			return
		}
		st, err := s.Submit(req)
		if err != nil {
			writeError(w, s, err)
			return
		}
		// A brand-new job is accepted for later; a coalesced submission
		// reports the existing job directly.
		code := http.StatusAccepted
		if st.State != serve.StateQueued {
			code = http.StatusOK
		}
		writeJSON(w, code, st)
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := s.Status(r.PathValue("id"))
		if err != nil {
			writeError(w, s, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		res, st, err := s.Result(r.PathValue("id"))
		if err != nil {
			writeError(w, s, err)
			return
		}
		if !st.State.Terminal() {
			writeJSON(w, http.StatusConflict, map[string]any{
				"error": "job not finished", "status": st,
			})
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"status": st, "result": res})
	})
	mux.HandleFunc("GET /v1/jobs/{id}/stream", func(w http.ResponseWriter, r *http.Request) {
		ch, err := s.Watch(r.PathValue("id"))
		if err != nil {
			writeError(w, s, err)
			return
		}
		rc := http.NewResponseController(w)
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-store")
		keep := time.NewTicker(sseKeepalive)
		defer keep.Stop()
		// push writes one SSE frame under a fresh write deadline — the
		// stream exempts itself from the server-wide WriteTimeout one
		// bounded write at a time — and reports whether the client is
		// still reading.
		push := func(frame string, args ...any) bool {
			_ = rc.SetWriteDeadline(time.Now().Add(sseWriteWindow))
			if _, err := fmt.Fprintf(w, frame, args...); err != nil {
				return false
			}
			return rc.Flush() == nil
		}
		for {
			select {
			case st, ok := <-ch:
				if !ok {
					return // terminal status delivered
				}
				data, err := json.Marshal(st)
				if err != nil {
					return
				}
				if !push("data: %s\n\n", data) {
					return
				}
			case <-keep.C:
				// Comment frame: invisible to SSE clients, a write error
				// on a dead connection — which is how a vanished client
				// is reaped instead of pinning its subscription forever.
				if !push(": keepalive\n\n") {
					return
				}
			case <-r.Context().Done():
				return
			}
		}
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := s.Cancel(r.PathValue("id"))
		if err != nil {
			writeError(w, s, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.Handle("GET /metrics", reg.Handler())
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		// Liveness only: the process is up and answering HTTP. A
		// draining or recovering server is alive — restarting it would
		// make things worse, not better. Routability is /readyz's job.
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		// Readiness: whether fresh traffic should be routed here. 503
		// while recovering (replay backlog still past the queue bound),
		// draining, or fully quarantined; 200 with reason "degraded"
		// while serving on a partly-quarantined executor fleet. The
		// body says which, plus per-executor health.
		rd := s.Readiness()
		code := http.StatusOK
		if !rd.Ready {
			code = http.StatusServiceUnavailable
		}
		writeJSON(w, code, rd)
	})
	return mux
}

// sseKeepalive is how often /stream emits a comment frame to probe the
// client's liveness; a package variable so tests can shrink it.
var sseKeepalive = 15 * time.Second

// sseWriteWindow is the per-frame write deadline on /stream: a client
// that cannot absorb one frame in this long is dead.
const sseWriteWindow = 30 * time.Second

// writeError maps the serve package's sentinel families onto HTTP: bad
// requests 400, backpressure 429 + a Retry-After estimated from the
// queue depth and observed run latency, unknown jobs 404.
func writeError(w http.ResponseWriter, s *serve.Scheduler, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, serve.ErrBadRequest):
		code = http.StatusBadRequest
	case errors.Is(err, serve.ErrBusy):
		code = http.StatusTooManyRequests
		w.Header().Set("Retry-After", strconv.Itoa(int(s.RetryAfter()/time.Second)))
	case errors.Is(err, serve.ErrUnknownJob):
		code = http.StatusNotFound
	}
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// armCrashHook parses a "point:N" crash spec — die at the Nth hit of
// the named ledger crash point — and arms the serve package's hook to
// SIGKILL this process there. Torture-suite plumbing; refuses unknown
// points so a typo cannot silently test nothing.
func armCrashHook(spec string) error {
	point, nStr, ok := strings.Cut(spec, ":")
	n := int64(1)
	if ok {
		v, err := strconv.ParseInt(nStr, 10, 64)
		if err != nil || v < 1 {
			return fmt.Errorf("DSMNC_SERVE_CRASH=%q: occurrence must be a positive integer", spec)
		}
		n = v
	}
	known := false
	for _, p := range serve.CrashPoints {
		if p == point {
			known = true
			break
		}
	}
	if !known {
		return fmt.Errorf("DSMNC_SERVE_CRASH=%q: unknown crash point (have %s)",
			spec, strings.Join(serve.CrashPoints, ", "))
	}
	var hits atomic.Int64
	serve.SetCrashHook(func(p string) {
		if p != point || hits.Add(1) != n {
			return
		}
		_ = syscall.Kill(os.Getpid(), syscall.SIGKILL)
		select {} // SIGKILL delivery is asynchronous; never run past the crash point
	})
	return nil
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// The header is gone; nothing useful left to do.
		_ = err
	}
}
