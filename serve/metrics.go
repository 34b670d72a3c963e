package serve

// The scheduler's observability surface: dsmnc_serve_* series on the
// same telemetry registry the -metrics endpoint serves, next to the
// runtime gauges and (labeled) Progress counters. Documented in
// docs/observability.md.

import (
	"dsmnc/telemetry"
)

// RegisterMetrics exposes the scheduler on a telemetry registry: queue
// depth and bound, in-flight and worker counts, submission/shed/outcome
// totals, and the queue-wait and run-latency histograms.
func (s *Scheduler) RegisterMetrics(r *telemetry.Registry) error {
	regs := []error{
		r.Gauge("dsmnc_serve_queue_depth", "Admitted jobs beyond what the worker pool runs at once.",
			func() float64 { depth, _ := s.QueueDepth(); return float64(depth) }),
		r.Gauge("dsmnc_serve_queue_capacity", "Bound of the queue depth; submissions beyond it shed.",
			func() float64 { return float64(s.cfg.QueueDepth) }),
		r.Gauge("dsmnc_serve_inflight", "Jobs currently executing on the worker pool.",
			func() float64 { return float64(s.inflight.Load()) }),
		r.Gauge("dsmnc_serve_workers", "Size of the worker pool.",
			func() float64 { return float64(s.cfg.Workers) }),
		r.Counter("dsmnc_serve_submitted_total", "Jobs accepted into the queue.",
			func() float64 { return float64(s.submitted.Load()) }),
		r.Counter("dsmnc_serve_deduped_total", "Submissions coalesced onto an existing job by the idempotent ID.",
			func() float64 { return float64(s.deduped.Load()) }),
		r.Counter("dsmnc_serve_shed_total", "Submissions shed with ErrBusy (full queue or draining).",
			func() float64 { return float64(s.shed.Load()) }),
		r.Counter("dsmnc_serve_done_total", "Jobs that finished successfully.",
			func() float64 { return float64(s.completed.Load()) }),
		r.Counter("dsmnc_serve_failed_total", "Jobs whose final outcome was an error.",
			func() float64 { return float64(s.failed.Load()) }),
		r.Counter("dsmnc_serve_canceled_total", "Jobs canceled before finishing.",
			func() float64 { return float64(s.canceled.Load()) }),
		r.Counter("dsmnc_serve_recovered_total", "Terminal jobs restored into the result cache from the ledger at startup.",
			func() float64 { return float64(s.restoredJobs.Load()) }),
		r.Counter("dsmnc_serve_replayed_total", "Non-terminal jobs re-enqueued from the ledger at startup.",
			func() float64 { return float64(s.replayedJobs.Load()) }),
		r.Counter("dsmnc_serve_watchdog_killed_total", "Running jobs the watchdog force-failed for overrunning their deadline.",
			func() float64 { return float64(s.watchdogKills.Load()) }),
		r.Counter("dsmnc_serve_ledger_errors_total", "Ledger appends or compactions that failed (the scheduler keeps serving).",
			func() float64 { return float64(s.ledgerErrs.Load()) }),
		r.Counter("dsmnc_serve_lease_lost_total", "Attempt leases revoked (no heartbeat) or surrendered by executors.",
			func() float64 { return float64(s.leaseLost.Load()) }),
		r.Counter("dsmnc_serve_reassigned_total", "Jobs requeued onto another executor after a lease loss.",
			func() float64 { return float64(s.reassigned.Load()) }),
		r.Counter("dsmnc_serve_quarantined_total", "Circuit-breaker trips: an executor quarantined after consecutive lease losses.",
			func() float64 { return float64(s.quarantined.Load()) }),
		r.Counter("dsmnc_serve_stale_results_total", "Late or duplicate attempt outcomes discarded by the epoch guard.",
			func() float64 { return float64(s.staleResults.Load()) }),
		r.Gauge("dsmnc_serve_executors", "Executor fault domains configured.",
			func() float64 { return float64(len(s.execs)) }),
		r.Gauge("dsmnc_serve_fleet_slots", "Fleet-wide worker slot total from readiness probes; 0 when no remote executor has reported.",
			func() float64 { return float64(s.fleetSlots()) }),
		r.Gauge("dsmnc_serve_executors_quarantined", "Executor fault domains currently quarantined.",
			func() float64 {
				s.mu.Lock()
				defer s.mu.Unlock()
				n := 0
				for _, es := range s.execs {
					if es.quarantined {
						n++
					}
				}
				return float64(n)
			}),
		r.RegisterHistogram("dsmnc_serve_queue_wait_seconds",
			"Time jobs spent queued before a worker picked them up.", nil, s.waitHist),
		r.RegisterHistogram("dsmnc_serve_run_seconds",
			"Run time of jobs on the worker pool.", nil, s.runHist),
	}
	for _, err := range regs {
		if err != nil {
			return err
		}
	}
	return nil
}
