package explore

// The exploration engine: enumerate -> simulate every point ->
// frontier. Simulation goes through a Submitter, the job surface of the
// serve package, so an exploration inherits its backpressure (ErrBusy
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
)

// Submitter is the slice of the scheduler the engine needs. It has two
// implementations: a *serve.Scheduler in process, and cmd/dsmexplore's
// HTTP client of a dsmserved's /v1/jobs API, which maps a 429 to
// serve.ErrBusy so the engine's backoff applies to both.
type Submitter interface {
	Submit(req serve.Request) (serve.Status, error)
	Wait(ctx context.Context, id string) (serve.Status, error)
	Result(id string) (dsmnc.Result, serve.Status, error)
}

// Progress is one engine progress tick, in phase order: enumerated ->
// simulated (one tick per finished cell) -> frontier.
type Progress struct {
	Phase      string // enumerated|simulated|frontier
	Enumerated int
	Simulated  int
	Frontier   int
}

// Engine runs explorations against a Submitter, local or remote. Stalls
// are scored with the paper's latencies (stats.DefaultLatencies) and
// the contention model with its geometry (memsys.DefaultGeometry), so
// the scheduler behind the Submitter should simulate that machine, as
// dsmserved's does. A submission shed with ErrBusy is retried after
// busyBackoff, doubling up to 64x; ErrDraining is not retried.
type Engine struct {
	Sub Submitter
	// OnProgress, when set, observes every phase tick.
	OnProgress func(Progress)
}

// busyBackoff is the first retry delay after an ErrBusy shed.
const busyBackoff = 50 * time.Millisecond

// Report is the canonical outcome of one exploration.
type Report struct {
	Spec       Space `json:"spec"` // normalized form
	Enumerated int   `json:"enumerated"`
	// BaselineStall anchors the report: Equation (1) over the no-NC
	// baseline simulation, the yardstick stalls are read against.
	BaselineStall int64 `json:"baseline_stall"`
	// Points are every enumerated point, simulated, in enumeration
	// order.
	Points []ReportPoint `json:"points"`
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
	// SimStall is Equation (1) over the simulated counters.
	SimStall int64 `json:"sim_stall"`
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
	pts, err := ns.Enumerate()
	if err != nil {
		return nil, err
	}
	prog := Progress{Phase: "enumerated", Enumerated: len(pts)}
	e.tick(prog)

	// The baseline anchor: one no-NC cell, simulated through the
	// scheduler like everything else; if the spec itself contains the
	// "none" point the idempotent job ID makes this the same job.
	baseRes, err := e.runCell(ctx, serve.Request{Bench: ns.Bench, System: "base", Scale: ns.Scale})
	if err != nil {
		return nil, fmt.Errorf("explore: baseline cell: %w", err)
	}
	lat := stats.DefaultLatencies()
	baseStall := stats.Model{Lat: lat, Tech: stats.NCTechNone}.RemoteReadStall(&baseRes.Counters)

	// Simulate every point through the scheduler. Submit everything
	// first (the queue absorbs what it can; ErrBusy sheds are retried
	// with backoff), then collect in enumeration order.
	ids := make([]string, len(pts))
	for i, pt := range pts {
		st, err := e.submit(ctx, pt.Req)
		if err != nil {
			return nil, fmt.Errorf("explore: submit %s: %w", pt.Name, err)
		}
		ids[i] = st.ID
	}
	results := make([]dsmnc.Result, len(pts))
	for i, pt := range pts {
		res, err := e.collect(ctx, ids[i])
		if err != nil {
			return nil, fmt.Errorf("explore: cell %s: %w", pt.Name, err)
		}
		results[i] = res
		prog.Phase, prog.Simulated = "simulated", i+1
		e.tick(prog)
	}

	rep := &Report{
		Spec:          ns,
		Enumerated:    len(pts),
		BaselineStall: baseStall.Total(),
	}
	geo := memsys.DefaultGeometry()
	for i, pt := range pts {
		c := &results[i].Counters
		m := stats.Model{Lat: lat, Tech: pt.Sys.Tech()}
		rp := ReportPoint{
			Name:          pt.Name,
			System:        pt.Req.System,
			NCBytes:       pt.Req.NCBytes,
			NCWays:        pt.Req.NCWays,
			PCFrac:        pt.Req.PCFrac,
			Threshold:     pt.Req.Threshold,
			CostBits:      pt.Cost,
			SimStall:      m.RemoteReadStall(c).Total(),
			TrafficBlocks: m.RemoteTraffic(c).Total(),
			Relocations:   c.Relocations,
		}
		if ns.Contention {
			cm := stats.ContentionModel{
				Lat:             lat,
				Tech:            pt.Sys.Tech(),
				Clusters:        geo.Clusters,
				ProcsPerCluster: geo.ProcsPerCluster,
			}
			rp.ContentionStall = cm.Evaluate(c).Stall.Total()
		}
		rep.Points = append(rep.Points, rp)
	}

	// The exact frontier on the simulated (stall, cost) plane.
	front := dominatedBy(len(rep.Points),
		func(i int) int64 { return rep.Points[i].CostBits },
		func(i int) int64 { return rep.Points[i].SimStall })
	for i := range rep.Points {
		if front[i] < 0 {
			rep.Points[i].OnFrontier = true
			rep.Frontier = append(rep.Frontier, rep.Points[i])
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
