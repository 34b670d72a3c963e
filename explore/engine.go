package explore

// The three-phase exploration engine: enumerate -> prune -> simulate ->
// frontier. Simulation goes through a serve.Scheduler-shaped Submitter,
// so an exploration inherits the serving fabric's backpressure (ErrBusy
// submissions are retried with backoff), idempotent job coalescing
// (re-running the same spec re-uses finished cells), ledger durability
// and lease retries. The report is canonical: the same spec against the
// same simulator produces byte-identical report bytes.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"dsmnc"
	"dsmnc/memsys"
	"dsmnc/serve"
	"dsmnc/stats"
	"dsmnc/workload"
)

// Submitter is the slice of the scheduler the engine needs; a
// *serve.Scheduler satisfies it.
type Submitter interface {
	Submit(req serve.Request) (serve.Status, error)
	Wait(ctx context.Context, id string) (serve.Status, error)
	Result(id string) (dsmnc.Result, serve.Status, error)
}

// Progress is one engine progress tick, in phase order: enumerated ->
// pruned -> simulated (one tick per finished cell) -> frontier.
type Progress struct {
	Phase      string `json:"phase"` // enumerated|pruned|simulated|frontier
	Enumerated int    `json:"enumerated"`
	Pruned     int    `json:"pruned"`
	Survivors  int    `json:"survivors"`
	Simulated  int    `json:"simulated"`
	Frontier   int    `json:"frontier,omitempty"`
}

// Engine runs explorations against a Submitter. The analytic model
// uses the paper's latencies (stats.DefaultLatencies) and geometry
// (memsys.DefaultGeometry); the Submitter's scheduler must simulate
// with the same machine, or the predicted-vs-simulated provenance will
// show systematic error. A submission the scheduler sheds with ErrBusy
// is retried after busyBackoff, doubling up to 64x.
type Engine struct {
	Sub Submitter
	// OnProgress, when set, observes every phase tick.
	OnProgress func(Progress)
}

// busyBackoff is the first retry delay after an ErrBusy shed.
const busyBackoff = 50 * time.Millisecond

// Report is the canonical outcome of one exploration.
type Report struct {
	Spec        Space  `json:"spec"` // normalized form
	Fingerprint string `json:"fingerprint"`
	Enumerated  int    `json:"enumerated"`
	Pruned      int    `json:"pruned"`
	Simulated   int    `json:"simulated"`
	// BaselineStall anchors the report: Equation (1) over the no-NC
	// baseline simulation every prediction started from.
	BaselineStall int64 `json:"baseline_stall"`
	// Points are the pruning survivors in enumeration order, each with
	// predicted and simulated stall (model error as provenance).
	Points []ReportPoint `json:"points"`
	// Dropped are the pruned points with the dominating survivor.
	Dropped []DroppedPoint `json:"dropped"`
	// Frontier are the Pareto-optimal points on the simulated
	// (stall, cost) plane, cheapest first.
	Frontier []ReportPoint `json:"frontier"`
}

// ReportPoint is one simulated configuration with provenance.
type ReportPoint struct {
	Name      string `json:"name"`
	System    string `json:"system"`
	NCBytes   int    `json:"nc_bytes,omitempty"`
	NCWays    int    `json:"nc_ways,omitempty"`
	PCFrac    int    `json:"pc_frac,omitempty"`
	Threshold uint32 `json:"threshold,omitempty"`
	CostBits  int64  `json:"cost_bits"`
	// PredStall is the analytic model's stall; SimStall the simulator's.
	// PredErrPct = 100*(pred-sim)/sim is the visible model error.
	PredStall  int64   `json:"pred_stall"`
	SimStall   int64   `json:"sim_stall"`
	PredErrPct float64 `json:"pred_err_pct"`
	// TrafficBlocks and Relocations carry the simulated cell's remote
	// block traffic and page relocation count, so report consumers can
	// render the paper's companion axes without re-running anything.
	TrafficBlocks int64 `json:"traffic_blocks"`
	Relocations   int64 `json:"relocations"`
	// ContentionStall is the queueing-corrected stall, present when the
	// spec asked for contention scoring.
	ContentionStall int64 `json:"contention_stall,omitempty"`
	OnFrontier      bool  `json:"on_frontier"`
}

// DroppedPoint records why a configuration was pruned unsimulated.
type DroppedPoint struct {
	Name        string `json:"name"`
	CostBits    int64  `json:"cost_bits"`
	PredStall   int64  `json:"pred_stall"`
	DominatedBy string `json:"dominated_by"`
}

// Canonical renders the report deterministically: the same spec and the
// same simulator produce byte-identical output.
func (r *Report) Canonical() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("explore: marshal report: %w", err)
	}
	return append(b, '\n'), nil
}

// Run executes one exploration. The spec may be raw (Run normalizes
// it); any spec problem is an ErrBadSpace-wrapped error. Scheduler
// failures (a failed or canceled cell, a draining scheduler, a dead
// context) abort the exploration with the underlying error.
func (e *Engine) Run(ctx context.Context, sp Space) (*Report, error) {
	ns, err := sp.Normalize()
	if err != nil {
		return nil, err
	}
	scale, _ := workload.ParseScale(ns.Scale)
	bench := workload.ByName(ns.Bench, scale)
	if bench == nil {
		return nil, fmt.Errorf("%w: unknown bench %q", ErrBadSpace, ns.Bench)
	}
	pts, err := ns.Enumerate()
	if err != nil {
		return nil, err
	}
	prog := Progress{Phase: "enumerated", Enumerated: len(pts)}
	e.tick(prog)

	// Phase 0: the baseline anchor. One no-NC cell, simulated through
	// the scheduler like everything else; if the spec itself contains
	// the "none" point the idempotent job ID makes this the same job.
	baseRes, err := e.runCell(ctx, serve.Request{Bench: ns.Bench, System: "base", Scale: ns.Scale})
	if err != nil {
		return nil, fmt.Errorf("explore: baseline cell: %w", err)
	}
	est := Estimator{
		Lat:         stats.DefaultLatencies(),
		Geometry:    memsys.DefaultGeometry(),
		SharedBytes: bench.SharedBytes,
		Base:        baseRes.Counters,
	}
	baseStall := stats.Model{Lat: est.Lat, Tech: stats.NCTechNone}.RemoteReadStall(&baseRes.Counters)

	// Phase 1: analytic pruning on the (predicted stall, cost) plane.
	preds := make([]Prediction, len(pts))
	for i, pt := range pts {
		if preds[i], err = est.Predict(pt.Sys); err != nil {
			return nil, err
		}
	}
	dom := dominatedBy(len(pts),
		func(i int) int64 { return pts[i].Cost },
		func(i int) int64 { return preds[i].Stall.Total() })
	var kept []int
	var dropped []DroppedPoint
	for i := range pts {
		if ns.Exhaustive || dom[i] < 0 {
			kept = append(kept, i)
			continue
		}
		dropped = append(dropped, DroppedPoint{
			Name:        pts[i].Name,
			CostBits:    pts[i].Cost,
			PredStall:   preds[i].Stall.Total(),
			DominatedBy: pts[dom[i]].Name,
		})
	}
	prog.Phase, prog.Pruned, prog.Survivors = "pruned", len(dropped), len(kept)
	e.tick(prog)

	// Phase 2: simulate the survivors through the scheduler. Submit
	// everything first (the queue absorbs what it can; ErrBusy sheds
	// are retried with backoff), then collect in enumeration order.
	ids := make([]string, len(kept))
	for n, i := range kept {
		st, err := e.submit(ctx, pts[i].Req)
		if err != nil {
			return nil, fmt.Errorf("explore: submit %s: %w", pts[i].Name, err)
		}
		ids[n] = st.ID
	}
	results := make([]dsmnc.Result, len(kept))
	for n, i := range kept {
		res, err := e.collect(ctx, ids[n])
		if err != nil {
			return nil, fmt.Errorf("explore: cell %s: %w", pts[i].Name, err)
		}
		results[n] = res
		prog.Phase, prog.Simulated = "simulated", n+1
		e.tick(prog)
	}

	// Phase 3: the exact frontier on the simulated plane.
	model := func(n int) stats.Model {
		return stats.Model{Lat: est.Lat, Tech: pts[kept[n]].Sys.Tech()}
	}
	simStall := make([]int64, len(kept))
	for n := range kept {
		simStall[n] = model(n).RemoteReadStall(&results[n].Counters).Total()
	}
	front := dominatedBy(len(kept),
		func(n int) int64 { return pts[kept[n]].Cost },
		func(n int) int64 { return simStall[n] })

	rep := &Report{
		Spec:          ns,
		Fingerprint:   ns.Fingerprint(),
		Enumerated:    len(pts),
		Pruned:        len(dropped),
		Simulated:     len(kept),
		BaselineStall: baseStall.Total(),
		Dropped:       dropped,
	}
	for n, i := range kept {
		pt := pts[i]
		rp := ReportPoint{
			Name:       pt.Name,
			System:     pt.Req.System,
			NCBytes:    pt.Req.NCBytes,
			NCWays:     pt.Req.NCWays,
			PCFrac:     pt.Req.PCFrac,
			Threshold:  pt.Req.Threshold,
			CostBits:   pt.Cost,
			PredStall:  preds[i].Stall.Total(),
			SimStall:   simStall[n],
			OnFrontier: front[n] < 0,
		}
		rp.TrafficBlocks = model(n).RemoteTraffic(&results[n].Counters).Total()
		rp.Relocations = results[n].Counters.Relocations
		if rp.SimStall != 0 {
			rp.PredErrPct = 100 * float64(rp.PredStall-rp.SimStall) / float64(rp.SimStall)
		}
		if ns.Contention {
			cm := stats.ContentionModel{
				Lat:             est.Lat,
				Tech:            pt.Sys.Tech(),
				Clusters:        est.Geometry.Clusters,
				ProcsPerCluster: est.Geometry.ProcsPerCluster,
			}
			rp.ContentionStall = cm.Evaluate(&results[n].Counters).Stall.Total()
		}
		rep.Points = append(rep.Points, rp)
		if rp.OnFrontier {
			rep.Frontier = append(rep.Frontier, rp)
		}
	}
	// Frontier listed cheapest-first, stall as tiebreak.
	sortFrontier(rep.Frontier)
	prog.Phase, prog.Frontier = "frontier", len(rep.Frontier)
	e.tick(prog)
	return rep, nil
}

// sortFrontier orders frontier points by (cost, stall, name).
func sortFrontier(f []ReportPoint) {
	for i := 1; i < len(f); i++ { // insertion sort: frontiers are tiny
		for j := i; j > 0; j-- {
			a, b := f[j-1], f[j]
			if a.CostBits < b.CostBits ||
				(a.CostBits == b.CostBits && (a.SimStall < b.SimStall ||
					(a.SimStall == b.SimStall && a.Name <= b.Name))) {
				break
			}
			f[j-1], f[j] = b, a
		}
	}
}

// runCell submits one request and waits for its result.
func (e *Engine) runCell(ctx context.Context, req serve.Request) (dsmnc.Result, error) {
	st, err := e.submit(ctx, req)
	if err != nil {
		return dsmnc.Result{}, err
	}
	return e.collect(ctx, st.ID)
}

// submit pushes one request through scheduler backpressure: ErrBusy
// sheds are retried with doubling backoff while the context lives.
func (e *Engine) submit(ctx context.Context, req serve.Request) (serve.Status, error) {
	for try := 0; ; try++ {
		st, err := e.Sub.Submit(req)
		if err == nil || !errors.Is(err, serve.ErrBusy) || errors.Is(err, serve.ErrDraining) {
			return st, err
		}
		delay := busyBackoff << min(try, 6)
		select {
		case <-ctx.Done():
			return serve.Status{}, ctx.Err()
		case <-time.After(delay):
		}
	}
}

// collect waits a job out and fetches its result.
func (e *Engine) collect(ctx context.Context, id string) (dsmnc.Result, error) {
	st, err := e.Sub.Wait(ctx, id)
	if err != nil {
		return dsmnc.Result{}, err
	}
	if st.State != serve.StateDone {
		return dsmnc.Result{}, fmt.Errorf("job %s finished %s: %s", id, st.State, st.Error)
	}
	res, _, err := e.Sub.Result(id)
	return res, err
}

func (e *Engine) tick(p Progress) {
	if e.OnProgress != nil {
		e.OnProgress(p)
	}
}
