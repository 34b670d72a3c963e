package explore

// The exploration observability surface: dsmnc_explore_* series on the
// same registry the -metrics endpoint serves (docs/observability.md).

import "dsmnc/telemetry"

// RegisterMetrics exposes the runner on a telemetry registry.
func (ru *Runner) RegisterMetrics(r *telemetry.Registry) error {
	regs := []error{
		r.Gauge("dsmnc_explore_active", "Explorations currently running.",
			func() float64 {
				ru.mu.Lock()
				defer ru.mu.Unlock()
				return float64(ru.active)
			}),
		r.Counter("dsmnc_explore_runs_total", "Explorations started (coalesced submissions not counted).",
			func() float64 { return float64(ru.started.Load()) }),
		r.Counter("dsmnc_explore_done_total", "Explorations that produced a frontier.",
			func() float64 { return float64(ru.finished.Load()) }),
		r.Counter("dsmnc_explore_failed_total", "Explorations that aborted with an error.",
			func() float64 { return float64(ru.failed.Load()) }),
		r.Counter("dsmnc_explore_enumerated_total", "Configurations enumerated across all explorations.",
			func() float64 { return float64(ru.enumerated.Load()) }),
		r.Counter("dsmnc_explore_simulated_total", "Configurations simulated through the scheduler.",
			func() float64 { return float64(ru.simulated.Load()) }),
	}
	for _, err := range regs {
		if err != nil {
			return err
		}
	}
	return nil
}
