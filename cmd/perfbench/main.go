// Command perfbench is the repository's end-to-end and per-layer
// benchmark. One invocation runs one workload for a fixed time from a
// seed, checks every output it measured for correctness, and prints its
// metrics by name and unit, ending with one JSON line:
//
//	perfbench --workload sweep --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// runs the workload untraced and then traced, and reports the per-layer
// metrics, the tracing overhead and an attribution table. run.sh builds
// it and the served binaries from the checkout; README.md describes the
// workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// e2eMetrics are reported by every workload with --trace 0.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"jobs_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// layerMetrics are reported by every workload with --trace 1. A layer
// that is not on a workload's path reports 0 there.
var layerMetrics = []metricDef{
	{"workload.gen_ns_per_ref", "ns"},
	{"workload.gen_share", "frac"},
	{"sim.apply_ns_per_ref", "ns"},
	{"sim.apply_share", "frac"},
	{"cache.l1_hit_frac", "frac"},
	{"bus.txn_per_kref", "1/kref"},
	{"core.nc_hit_per_kref", "1/kref"},
	{"core.nc_insert_per_kref", "1/kref"},
	{"pagecache.hit_per_kref", "1/kref"},
	{"pagecache.reloc_per_kref", "1/kref"},
	{"directory.remote_per_kref", "1/kref"},
	{"directory.upgrade_per_kref", "1/kref"},
	{"dsmnc.cell_overhead_share", "frac"},
	{"serve.submit_ms", "ms"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.run_ms", "ms"},
	{"serve.notify_lag_ms", "ms"},
	{"serve.replay_s", "s"},
	{"serve.dedup_frac", "frac"},
	{"serve.shed", "count"},
	{"serve.reassigned", "count"},
	{"dsmserved.result_fetch_ms", "ms"},
	{"dsmserved.result_kb", "KB"},
	{"dsmserved.http_self_ms", "ms"},
	{"wire.req_encode_us", "us"},
	{"wire.req_decode_us", "us"},
	{"wire.res_encode_us", "us"},
	{"wire.res_decode_us", "us"},
	{"wire.res_kb", "KB"},
	{"fleet.hop_overhead_ms", "ms"},
	{"fleet.lease_lost", "count"},
	{"worker.joined", "count"},
	{"worker.shed", "count"},
	{"worker.stale", "count"},
	{"trace.overhead_frac", "frac"},
}

// env is what a workload runs with.
type env struct {
	root    string // checkout root: testdata/golden lives under it
	bin     string // directory holding the dsmserved and dsmworker binaries
	work    string // scratch directory for journals and ledgers, removed at exit
	seed    int64
	seconds time.Duration
	traced  bool
	procs   *procSet
}

// result is one workload run's outcome.
type result struct {
	chk       checker
	attempted int64
	failed    int64
	metrics   map[string]float64
}

func newResult() *result { return &result{metrics: map[string]float64{}} }

func (r *result) put(name string, v float64) { r.metrics[name] = v }

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*env) (*result, error){
	"sweep":        runSweep,
	"serve-unique": runServeUnique,
	"serve-replay": runServeReplay,
	"fleet-hop":    runFleetHop,
}

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "workload to run: sweep, serve-unique, serve-replay or fleet-hop")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 20, "length of the measured phase, in seconds")
		traced  = flag.Int("trace", 0, "0 reports end-to-end metrics; 1 adds a traced phase and reports per-layer metrics")
		root    = flag.String("root", ".", "checkout root")
		bin     = flag.String("bin", ".bench_build/bin", "directory holding the dsmserved and dsmworker binaries")
	)
	flag.Parse()
	runWorkload, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad --seconds/--trace\n", *name)
		return 2
	}
	work, err := os.MkdirTemp(filepath.Join(*root, ".bench_build"), "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)
	e := &env{
		root: *root, bin: *bin, work: work, seed: *seed,
		seconds: time.Duration(*seconds) * time.Second,
		traced:  *traced == 1,
		procs:   &procSet{},
	}
	defer e.procs.stopAll()

	// A signal stops the servers this run started before it exits.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		e.procs.stopAll()
		os.RemoveAll(work)
		os.Exit(1)
	}()

	res, err := runWorkload(e)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return report(*name, e.traced, res)
}

// report prints every metric of the run by name and unit, then the
// result line. It fails the run on any correctness failure.
func report(name string, traced bool, res *result) int {
	defs := e2eMetrics
	if traced {
		defs = layerMetrics
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]metric{}
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok && !traced {
			res.chk.failf("workload %s did not measure %s", name, d.name)
		}
		out[d.name] = metric{v, d.unit}
		fmt.Printf("%-28s %14.6g %s\n", d.name, v, d.unit)
	}
	for _, f := range res.chk.failures {
		fmt.Fprintln(os.Stderr, "perfbench: INCORRECT:", f)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.chk.ok(), res.attempted, res.failed, out})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.chk.ok() {
		return 1
	}
	return 0
}

// printAttribution prints a traced run's layer self times, divided by
// per (the number of requests or cells), next to the untraced
// end-to-end figure e2eMS. The self times of one span tree add up to
// its root by construction, so their sum over e2eMS is 1 plus the drift
// between the traced and the untraced phase.
func printAttribution(title string, self map[string]time.Duration, per, e2eMS float64) {
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	var sum float64
	fmt.Printf("attribution (%s):\n", title)
	for _, n := range names {
		v := float64(self[n].Nanoseconds()) / 1e6 / per
		sum += v
		fmt.Printf("  %-26s %10.3f ms\n", n, v)
	}
	fmt.Printf("  %-26s %10.3f ms\n  %-26s %10.3f ms  (sum/untraced = %.3f)\n", "sum of self times", sum, "untraced end-to-end", e2eMS, ratio(sum, e2eMS))
}
