package main

import (
	"fmt"
	"path/filepath"
	"slices"
	"time"
)

// Served-workload shape: as many closed-loop clients as the stack has
// cell workers, and no more of either than the reference box's cores.
const (
	clients      = 2
	servedTrials = 31 // set-ups measured per run
	sampleCells  = 12 // served results re-run in process per phase
	replayCells  = 256
	wireReps     = 20 // codec calls timed per result
	healthzReps  = 200
)

// stack is the served processes of one workload.
type stack struct {
	coord  *proc // dsmserved
	worker *proc // dsmworker, fleet-hop only
}

func (s stack) stop() {
	s.coord.stop()
	if s.worker != nil {
		s.worker.stop()
	}
}

// rss is the peak resident set of the processes doing the work.
func (s stack) rss() (float64, error) {
	mb, err := peakRSSMB(s.coord.cmd.Process.Pid)
	if err != nil || s.worker == nil {
		return mb, err
	}
	w, err := peakRSSMB(s.worker.cmd.Process.Pid)
	return mb + w, err
}

// counters scrapes the coordinator and, on a fleet, the worker.
func (s stack) counters() (map[string]float64, error) {
	m, err := scrape(s.coord.addr)
	if err != nil || s.worker == nil {
		return m, err
	}
	w, err := scrape(s.worker.addr)
	for k, v := range w {
		m[k] = v
	}
	return m, err
}

// startServer execs dsmserved on ledger with extra flags and waits
// until it is ready.
func startServer(e *env, ledger string, extra ...string) (*proc, error) {
	args := append([]string{"-addr", "127.0.0.1:0", "-q", "-ledger", ledger}, extra...)
	p, err := e.procs.start(e.bin, "dsmserved", args...)
	if err != nil {
		return nil, err
	}
	if err := waitReady(p.addr, 60*time.Second); err != nil {
		p.stop()
		return nil, fmt.Errorf("%w: %s", err, p.stderr.String())
	}
	return p, nil
}

// measureSetup starts a stack servedTrials times, timing exec to
// /readyz 200, stops all but the last, and returns the last with the
// median set-up time.
func measureSetup(start func() (stack, error)) (stack, float64, error) {
	var times []float64
	var st stack
	for i := range servedTrials {
		t0 := time.Now()
		s, err := start()
		if err != nil {
			return stack{}, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i < servedTrials-1 {
			s.stop()
		} else {
			st = s
		}
	}
	return st, median(times), nil
}

// servedSpec describes one served workload.
type servedSpec struct {
	name  string
	tailP float64 // fixed tail percentile (see README.md)
	fresh bool    // requests run new cells; false: they hit finished jobs
	fleet bool
}

// runServeUnique: a real dsmserved with its ledger on, fed cells it has
// not seen before, so every request runs a simulation: the write path
// of the serving stack.
func runServeUnique(e *env) (*result, error) {
	res := newResult()
	ledger := filepath.Join(e.work, "ledger.jsonl")
	st, setup, err := measureSetup(func() (stack, error) {
		p, err := startServer(e, ledger, "-workers", fmt.Sprint(clients))
		return stack{coord: p}, err
	})
	if err != nil {
		return nil, err
	}
	defer st.stop()
	res.put("setup_s", setup)
	g := newCellGen(e.seed, streamUnique)
	return res, servedPhases(e, res, st, servedSpec{name: "serve-unique", tailP: 90, fresh: true}, g.next)
}

// runFleetHop: dsmserved coordinating one dsmworker over the fleet wire
// protocol, with a 1s lease so the completion poll runs every 250ms.
func runFleetHop(e *env) (*result, error) {
	res := newResult()
	ledger := filepath.Join(e.work, "ledger.jsonl")
	st, setup, err := measureSetup(func() (stack, error) {
		w, err := e.procs.start(e.bin, "dsmworker", "-addr", "127.0.0.1:0", "-q", "-slots", fmt.Sprint(clients))
		if err != nil {
			return stack{}, err
		}
		if err := waitReady(w.addr, 60*time.Second); err != nil {
			w.stop()
			return stack{}, err
		}
		c, err := startServer(e, ledger, "-fleet", w.addr, "-lease", "1s")
		if err != nil {
			w.stop()
			return stack{}, err
		}
		return stack{coord: c, worker: w}, nil
	})
	if err != nil {
		return nil, err
	}
	defer st.stop()
	res.put("setup_s", setup)
	g := newCellGen(e.seed, streamFleet)
	return res, servedPhases(e, res, st, servedSpec{name: "fleet-hop", tailP: 90, fresh: true, fleet: true}, g.next)
}

// runServeReplay: an untimed pass runs the seed's cells into a ledger; a
// fresh dsmserved replays it at start-up, and the clients resubmit the
// same cells, which the job table answers from its result cache: the
// read path of the serving stack. No simulation runs while measured.
func runServeReplay(e *env) (*result, error) {
	res := newResult()
	ledger := filepath.Join(e.work, "ledger.jsonl")
	g := newCellGen(e.seed, streamReplay)
	cells := make([]cell, replayCells)
	for i := range cells {
		cells[i] = g.next()
	}
	if err := fillLedger(e, ledger, cells); err != nil {
		return nil, err
	}
	server := func(ledger string) func() (stack, error) {
		return func() (stack, error) {
			p, err := startServer(e, ledger, "-workers", fmt.Sprint(clients))
			return stack{coord: p}, err
		}
	}
	var empty float64
	if e.traced {
		// Replay cost is set-up on the filled ledger minus set-up on an
		// empty one.
		s, t, err := measureSetup(server(filepath.Join(e.work, "empty.jsonl")))
		if err != nil {
			return nil, err
		}
		s.stop()
		empty = t
	}
	st, setup, err := measureSetup(server(ledger))
	if err != nil {
		return nil, err
	}
	defer st.stop()
	res.put("setup_s", setup)
	if e.traced {
		res.put("serve.replay_s", setup-empty)
	}
	// Resubmit the cells in seeded order, one shuffled pass after another.
	r := newRand(e.seed, streamReplay)
	var order []cell
	next := func() cell {
		if len(order) == 0 {
			order = slices.Clone(cells)
			r.Shuffle(len(order), func(i, k int) { order[i], order[k] = order[k], order[i] })
		}
		c := order[0]
		order = order[1:]
		return c
	}
	return res, servedPhases(e, res, st, servedSpec{name: "serve-replay", tailP: 99}, next)
}

// fillLedger runs cells through a dsmserved on ledger until all are
// done, then stops it: the untimed pass of serve-replay.
func fillLedger(e *env, ledger string, cells []cell) error {
	p, err := startServer(e, ledger, "-workers", fmt.Sprint(clients))
	if err != nil {
		return err
	}
	defer p.stop()
	i := 0
	outs, _ := drive(p.addr, clients, func() (cell, bool) {
		if i == len(cells) {
			return cell{}, false
		}
		i++
		return cells[i-1], true
	}, func(int) bool { return false }, nil)
	for _, o := range outs {
		if o.fail != "" {
			return fmt.Errorf("filling the replay ledger: %s/%s failed: %s", o.cell.Bench, o.cell.Kind, o.fail)
		}
	}
	return nil
}
