package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"dsmnc"
	"dsmnc/workload"
)

// setupTrials is how many times a run measures its set-up; it reports
// the median.
const setupTrials = 101

// runSweep is the figure path: back-to-back journaled dsmnc.Sweep calls
// at ScaleSmall over all eight benchmarks and the sweep's organizations,
// at the library's default cell concurrency. Every cell is checked
// against the golden corpus (golden organizations) or its benchmark's
// golden reference count (all organizations).
func runSweep(e *env) (*result, error) {
	res := newResult()
	golden, err := loadGolden(e.root)
	if err != nil {
		return nil, err
	}
	opt := dsmnc.DefaultOptions()
	opt.Scale = workload.ScaleSmall

	// Set-up: what a sweep pays before its first cell runs, timed in
	// process over many trials before the measured phase.
	var setups []float64
	for i := range setupTrials {
		t0 := time.Now()
		if err := sweepSetup(filepath.Join(e.work, fmt.Sprintf("setup-%d.jsonl", i)), e.seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res.put("setup_s", median(setups))

	var walls []float64
	start := time.Now()
	for time.Since(start) < e.seconds {
		path := filepath.Join(e.work, fmt.Sprintf("sweep-%d.jsonl", len(walls)))
		systems := sweepSystems(e.seed, len(walls))
		t0 := time.Now()
		j, err := dsmnc.OpenJournal(path, false)
		if err != nil {
			return nil, err
		}
		o := opt
		o.Journal = j
		_, err = dsmnc.Sweep("perfbench", "perfbench sweep", workload.All(opt.Scale), systems, o)
		walls = append(walls, time.Since(t0).Seconds())
		j.Close()
		if err != nil {
			return nil, err
		}
	}
	phase := time.Since(start).Seconds()
	rss, err := peakRSSMB(0)
	if err != nil {
		return nil, err
	}

	var cells int64
	var first map[string]dsmnc.Result
	for i := range walls {
		got, err := readJournal(filepath.Join(e.work, fmt.Sprintf("sweep-%d.jsonl", i)))
		if err != nil {
			return nil, err
		}
		if first == nil {
			first = got
		}
		systems := sweepSystems(e.seed, i)
		n := int64(len(workload.Names()) * len(systems))
		cells += n
		res.attempted += n
		res.failed += int64(checkSweep(&res.chk, golden, systems, got))
	}
	sweepWall := mean(walls)
	res.put("jobs_per_s", float64(cells)/phase)
	// A sweep's latency is the wall time of the whole figure, what a
	// dsmfig user waits for. A run holds a handful of sweeps, never ten
	// beyond any percentile, so its tail is the slowest sweep.
	res.put("latency_p50_ms", median(walls)*1000)
	res.put("latency_tail_ms", percentile(walls, 100)*1000)
	res.put("peak_rss_mb", rss)
	fmt.Printf("sweep: %d sweeps, %d cells in %.2fs; tail = slowest of %d sweeps\n",
		len(walls), cells, phase, len(walls))

	if e.traced {
		if err := traceSweep(e, res, opt, sweepSystems(e.seed, 0), first, sweepWall); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// sweepSetup does what a sweep does before its first cell runs: it
// opens a fresh journal and builds the sweep's inputs and its first
// cell's machine.
func sweepSetup(journal string, seed int64) error {
	j, err := dsmnc.OpenJournal(journal, false)
	if err != nil {
		return err
	}
	defer j.Close()
	opt := dsmnc.DefaultOptions()
	opt.Scale = workload.ScaleSmall
	benches, systems := workload.All(opt.Scale), sweepSystems(seed, 0)
	_, err = dsmnc.Build(benches[0], systems[0], opt)
	return err
}

// journalLine is the part of a sweep journal record the check reads.
type journalLine struct {
	Bench  string       `json:"bench"`
	System string       `json:"system"`
	Result dsmnc.Result `json:"result"`
}

// readJournal reads a finished sweep's journal, keyed by cellKey.
func readJournal(path string) (map[string]dsmnc.Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]dsmnc.Result{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var l journalLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out[cellKey(l.Bench, l.System)] = l.Result
	}
	return out, sc.Err()
}

func cellKey(bench, system string) string { return system + "_" + bench }

// checkSweep checks one sweep's results: every cell present, every
// cell's reference count equal to its benchmark's golden count, and the
// golden organizations' counters identical to the corpus. It returns
// how many cells failed.
func checkSweep(chk *checker, golden map[string]goldenCell, systems []dsmnc.System, got map[string]dsmnc.Result) int {
	isGolden := map[string]bool{}
	for _, s := range goldenSystems() {
		isGolden[s.Name] = true
	}
	bad := 0
	for _, bench := range workload.Names() {
		base, ok := golden[cellKey(bench, "base")]
		if !ok {
			chk.failf("golden corpus has no base_%s", bench)
			bad++
			continue
		}
		for _, s := range systems {
			r, ok := got[cellKey(bench, s.Name)]
			var problem string
			switch {
			case !ok:
				problem = "is missing from the journal"
			case isGolden[s.Name]:
				g := golden[cellKey(bench, goldenFile(s.Name))]
				if d := diffResult(r, g.Refs, g.Stats); d != "" {
					problem = "differs from golden: " + d
				}
			case r.Refs != base.Refs:
				problem = fmt.Sprintf("applied %d refs, golden count is %d", r.Refs, base.Refs)
			}
			if problem != "" {
				chk.failf("sweep cell %s/%s %s", bench, s.Name, problem)
				bad++
			}
		}
	}
	return bad
}

// traceSweep runs the sweep's cells once more through the traced cell
// runner, at the same concurrency, checks every cell's counters against
// the untraced result, and reports the per-layer metrics.
func traceSweep(e *env, res *result, opt dsmnc.Options, systems []dsmnc.System, untraced map[string]dsmnc.Result, sweepWall float64) error {
	type job struct {
		b   *workload.Bench
		sys dsmnc.System
	}
	var jobs []job
	for _, b := range workload.All(opt.Scale) {
		for _, s := range systems {
			jobs = append(jobs, job{b, s})
		}
	}
	rec := newRecorder()
	workers := runtime.GOMAXPROCS(0)
	runs := make([]cellRun, len(jobs))
	errs := make([]error, len(jobs))
	next := make(chan int)
	var wg sync.WaitGroup
	t0 := time.Now()
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				runs[i], errs[i] = runTracedCell(rec, int64(i+1), jobs[i].b, jobs[i].sys, opt)
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()
	wall := time.Since(t0)

	var counts layerCounts
	var cellSum time.Duration
	for i, j := range jobs {
		res.attempted++
		if errs[i] != nil {
			res.failed++
			res.chk.failf("traced cell %s/%s: %v", j.b.Name, j.sys.Name, errs[i])
			continue
		}
		want := untraced[cellKey(j.b.Name, j.sys.Name)]
		got := dsmnc.Result{Refs: runs[i].refs, Counters: runs[i].counters}
		if d := diffResult(got, want.Refs, want.Counters); d != "" {
			res.failed++
			res.chk.failf("traced cell %s/%s differs from the untraced sweep: %s", j.b.Name, j.sys.Name, d)
		}
		counts.add(runs[i].refs, runs[i].counters)
		cellSum += runs[i].total
	}

	spans := rec.snapshot()
	if err := writeSpans(e, "sweep", spans); err != nil {
		return err
	}
	self := selfTimes(spans)
	// Worker time the traced pass had, and the untraced equivalent.
	tracedWork := time.Duration(workers) * wall
	untracedWork := float64(workers) * sweepWall
	self["dsmnc.idle"] = tracedWork - cellSum
	refs := float64(counts.refs)
	gen, apply := self["workload.gen"].Seconds(), self["sim.apply"].Seconds()
	res.put("workload.gen_ns_per_ref", gen*1e9/refs)
	res.put("workload.gen_share", gen/tracedWork.Seconds())
	res.put("sim.apply_ns_per_ref", apply*1e9/refs)
	res.put("sim.apply_share", apply/tracedWork.Seconds())
	counts.metrics(res.put)
	// Taken from the traced pass alone, so drift between the two passes
	// cannot push the share below 0.
	res.put("dsmnc.cell_overhead_share", 1-(gen+apply)/tracedWork.Seconds())
	res.put("trace.overhead_frac", wall.Seconds()/sweepWall-1)
	perCell := float64(len(jobs))
	printAttribution("sweep, worker-ms per cell", self, perCell, untracedWork*1000/perCell)
	return nil
}
