package dsmnc

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"dsmnc/telemetry"
)

// Progress is a concurrency-safe live account of a run or sweep,
// shared through Options.Progress: the simulation workers bump it, and
// Heartbeat (or any caller polling the counters) reports it. The zero
// value is ready to use.
type Progress struct {
	// Refs counts references applied across all in-flight cells
	// (journal-restored cells do not count — only simulation actually
	// performed).
	Refs atomic.Int64
	// CellsDone and CellsTotal track sweep completion; journal-restored
	// cells count as done the moment they are skipped.
	CellsDone  atomic.Int64
	CellsTotal atomic.Int64
	// CellsFailed counts cells whose final outcome (after any retries)
	// was an error; CellsRetried counts the extra attempts spent on
	// transiently-failing cells, whatever their final outcome.
	CellsFailed  atomic.Int64
	CellsRetried atomic.Int64
	// JournalWrites counts durable cell records appended so far.
	JournalWrites atomic.Int64

	lastJournal atomic.Int64 // unix nanoseconds of the last append
	startNanos  atomic.Int64 // unix nanoseconds of the first observation
}

// markStart records the observation start time once; Heartbeat and
// RegisterMetrics call it so rates have a basis.
func (p *Progress) markStart() {
	p.startNanos.CompareAndSwap(0, time.Now().UnixNano())
}

// elapsed returns the time since the first observation, 0 before one.
func (p *Progress) elapsed() time.Duration {
	ns := p.startNanos.Load()
	if ns == 0 {
		return 0
	}
	return time.Since(time.Unix(0, ns))
}

// noteJournal records a successful journal append.
func (p *Progress) noteJournal() {
	p.JournalWrites.Add(1)
	p.lastJournal.Store(time.Now().UnixNano())
}

// LastJournalWrite returns when the last journal record was written,
// and whether one has been written at all.
func (p *Progress) LastJournalWrite() (time.Time, bool) {
	ns := p.lastJournal.Load()
	if ns == 0 {
		return time.Time{}, false
	}
	return time.Unix(0, ns), true
}

// ETA estimates the remaining sweep time from the cell completion rate
// so far. ok is false until at least one cell finished (no basis), or
// when there is no cell accounting at all.
func (p *Progress) ETA() (time.Duration, bool) {
	total := p.CellsTotal.Load()
	done := p.CellsDone.Load()
	el := p.elapsed()
	if total <= 0 || done <= 0 || el <= 0 {
		return 0, false
	}
	remaining := total - done
	if remaining <= 0 {
		return 0, true
	}
	perCell := el / time.Duration(done)
	return perCell * time.Duration(remaining), true
}

// RegisterMetrics exposes the progress counters on a telemetry registry
// as the dsmnc_* series scraped from the -metrics endpoint: references
// applied, cell completion and failure counts, retry volume, journal
// writes and journal lag. It registers unlabeled series, so it fits a
// process with one sweep; a process tracking several concurrent jobs
// (the serving layer) must scope each Progress with
// RegisterMetricsLabeled or the registrations collide.
func (p *Progress) RegisterMetrics(r *telemetry.Registry) error {
	return p.RegisterMetricsLabeled(r, "")
}

// RegisterMetricsLabeled is RegisterMetrics with every series carrying
// a job label, giving each Progress its own metric scope: two
// concurrent jobs registered under different labels coexist on one
// registry instead of fighting over (or failing to register) the same
// gauges. An empty job registers unlabeled series.
func (p *Progress) RegisterMetricsLabeled(r *telemetry.Registry, job string) error {
	p.markStart()
	var labels telemetry.Labels
	if job != "" {
		labels = telemetry.Labels{"job": job}
	}
	counter := func(name, help string, fn func() float64) error {
		return r.CounterWith(name, help, labels, fn)
	}
	gauge := func(name, help string, fn func() float64) error {
		return r.GaugeWith(name, help, labels, fn)
	}
	regs := []error{
		counter("dsmnc_refs_applied_total", "References applied across all in-flight cells.",
			func() float64 { return float64(p.Refs.Load()) }),
		gauge("dsmnc_cells_done", "Sweep cells completed (including journal-restored ones).",
			func() float64 { return float64(p.CellsDone.Load()) }),
		gauge("dsmnc_cells_total", "Sweep cells scheduled.",
			func() float64 { return float64(p.CellsTotal.Load()) }),
		counter("dsmnc_cells_failed_total", "Cells whose final outcome was an error.",
			func() float64 { return float64(p.CellsFailed.Load()) }),
		counter("dsmnc_cell_retries_total", "Extra attempts spent on transiently-failing cells.",
			func() float64 { return float64(p.CellsRetried.Load()) }),
		counter("dsmnc_journal_writes_total", "Durable journal records appended.",
			func() float64 { return float64(p.JournalWrites.Load()) }),
		gauge("dsmnc_journal_lag_seconds", "Seconds since the last journal append (0 before the first).",
			func() float64 {
				t, ok := p.LastJournalWrite()
				if !ok {
					return 0
				}
				return time.Since(t).Seconds()
			}),
		gauge("dsmnc_refs_per_second", "Average reference throughput since observation started.",
			func() float64 {
				el := p.elapsed().Seconds()
				if el <= 0 {
					return 0
				}
				return float64(p.Refs.Load()) / el
			}),
	}
	for _, err := range regs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Heartbeat prints a one-line status to w at the given interval —
// references applied, reference rate, cells done/total with an ETA,
// time since the last journal write — until the returned stop function
// is called. stop prints one final status line (so every observed run
// ends with its up-to-date totals, even one shorter than the interval)
// and blocks until the reporter has exited, so w is safe to reuse
// afterwards.
func (p *Progress) Heartbeat(w io.Writer, every time.Duration) (stop func()) {
	if every <= 0 {
		every = 10 * time.Second
	}
	p.markStart()
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(every)
		defer tick.Stop()
		last := p.Refs.Load()
		lastT := time.Now()
		report := func(now time.Time) {
			refs := p.Refs.Load()
			rate := 0.0
			if dt := now.Sub(lastT).Seconds(); dt > 0 {
				rate = float64(refs-last) / dt
			}
			last, lastT = refs, now
			line := fmt.Sprintf("progress: %d refs (%.0f refs/s)", refs, rate)
			if total := p.CellsTotal.Load(); total > 0 {
				line += fmt.Sprintf(", cells %d/%d", p.CellsDone.Load(), total)
				if failed := p.CellsFailed.Load(); failed > 0 {
					line += fmt.Sprintf(" (%d failed)", failed)
				}
				if eta, ok := p.ETA(); ok && eta > 0 {
					line += fmt.Sprintf(", ETA %s", eta.Round(time.Second))
				}
			}
			if t, ok := p.LastJournalWrite(); ok {
				line += fmt.Sprintf(", last journal write %s ago",
					time.Since(t).Round(time.Second))
			}
			fmt.Fprintln(w, line)
		}
		for {
			select {
			case <-done:
				report(time.Now())
				return
			case now := <-tick.C:
				report(now)
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			wg.Wait()
		})
	}
}
