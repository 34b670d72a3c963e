package dsmnc

// The trace fan-out suite: cells that share a reference stream run as
// one group (runGroup), and each must come out exactly as a solo
// RunCell of the same (bench, system, options) — the same Result, the
// same failure, charged the same time against its CellTimeout.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"dsmnc/workload"
)

// withProcs runs the rest of the test at GOMAXPROCS n, which is
// runMatrix's worker count.
func withProcs(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// solo runs one job alone through RunCell.
func solo(t *testing.T, j runJob) Result {
	t.Helper()
	res, err := RunCell(context.Background(), "solo", j.bench, j.sys, j.opt)
	if err != nil {
		t.Fatalf("solo %s/%s: %v", j.bench.Name, j.sys.Name, err)
	}
	return res
}

// TestGroupedSweepMatchesSolo: every grouped cell of a multi-benchmark
// sweep, of fig3 (whose columns override L1Ways) and of a split
// one-benchmark sweep equals a solo RunCell field for field. Cholesky's
// 2.1M test-scale references span several group chunks; the other
// streams fit in one.
func TestGroupedSweepMatchesSolo(t *testing.T) {
	const kb16 = 16 << 10
	opt := testOptions()
	benches := func(names ...string) (out []*workload.Bench) {
		for _, n := range names {
			out = append(out, workload.ByName(n, opt.Scale))
		}
		return out
	}
	for _, tc := range []struct {
		name    string
		fig     Figure
		benches []*workload.Bench
		procs   int // 0 keeps GOMAXPROCS
	}{
		{"sweep", Figure{ID: "grouped", columns: columns(Base(), VB(kb16), NCD(),
			VBPFrac(kb16, 5), VXPFrac(kb16, 5, 32), Origin())}, benches("Cholesky", "FFT", "Ocean"), 0},
		{"fig3", figure(t, "fig3"), benches("Barnes", "FFT", "LU", "Radix"), 0},
		{"split", Figure{ID: "split", columns: columns(Base(), VB(kb16), VP(kb16), NCPFrac(kb16, 5))}, benches("FFT"), 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.procs > 0 {
				withProcs(t, tc.procs)
			}
			jobs, cols, _ := tc.fig.jobs(tc.benches, opt)
			if tc.procs > 0 {
				if g := groupJobs(jobs, tc.procs); len(g) != tc.procs {
					t.Fatalf("%d groups at %d workers, want the split rule's %d", len(g), tc.procs, tc.procs)
				}
			}
			results, failed, err := runMatrix(tc.fig.ID, jobs, len(tc.benches), cols)
			if err != nil || len(failed) > 0 {
				t.Fatalf("grouped run: err %v, failed %v", err, failed)
			}
			for _, j := range jobs {
				if got, want := results[j.row][j.col], solo(t, j); !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%s: grouped result differs from solo RunCell:\ngot  %+v\nwant %+v",
						j.bench.Name, j.sys.Name, got, want)
				}
			}
		})
	}
}

// TestGroupJobs pins the grouping rule: one group per benchmark stream
// in row order, per-column option overrides kept inside it, a changed
// quantum splitting it, and fewer groups than workers dealt round-robin.
func TestGroupJobs(t *testing.T) {
	opt := testOptions()
	all := workload.All(opt.Scale)
	var eight []System
	for i := range 8 {
		eight = append(eight, named(fmt.Sprintf("vb%d", i), VB(16<<10)))
	}
	sweep := Figure{columns: columns(eight...)}
	shape := func(groups [][]runJob) (benches []string, cols [][]int) {
		for _, g := range groups {
			benches = append(benches, g[0].bench.Name)
			var cs []int
			for _, j := range g {
				if j.bench != g[0].bench {
					t.Fatalf("group mixes %s and %s", g[0].bench.Name, j.bench.Name)
				}
				cs = append(cs, j.col)
			}
			cols = append(cols, cs)
		}
		return benches, cols
	}
	all8 := []int{0, 1, 2, 3, 4, 5, 6, 7}

	jobs, _, _ := sweep.jobs(all, opt)
	benches, cols := shape(groupJobs(jobs, 8))
	if !reflect.DeepEqual(benches, workload.Names()) {
		t.Errorf("8x8 at 8 workers: groups %v, want one per benchmark in row order", benches)
	}
	for i, cs := range cols {
		if !reflect.DeepEqual(cs, all8) {
			t.Errorf("8x8 at 8 workers: group %d holds columns %v, want %v", i, cs, all8)
		}
	}

	jobs, _, _ = sweep.jobs(all[:1], opt)
	if _, cols := shape(groupJobs(jobs, 2)); !reflect.DeepEqual(cols, [][]int{{0, 2, 4, 6}, {1, 3, 5, 7}}) {
		t.Errorf("1x8 at 2 workers: groups %v, want two of 4 dealt round-robin", cols)
	}
	if _, cols := shape(groupJobs(jobs, 1)); !reflect.DeepEqual(cols, [][]int{all8}) {
		t.Errorf("1x8 at 1 worker: groups %v, want one", cols)
	}

	jobs, _, _ = figure(t, "fig3").jobs(all, opt)
	groups := groupJobs(jobs, 2)
	if len(groups) != len(all) {
		t.Fatalf("fig3: %d groups, want one per benchmark", len(groups))
	}
	for _, g := range groups {
		ways := map[int]bool{}
		for _, j := range g {
			ways[j.opt.L1Ways] = true
		}
		if len(g) != 9 || len(ways) != 3 {
			t.Errorf("fig3 %s: group of %d cells over L1 ways %v, want all 9 columns over 1, 2 and 4 ways",
				g[0].bench.Name, len(g), ways)
		}
	}

	jobs, _, _ = sweep.jobs(all[:1], opt)
	jobs[7].opt.Quantum = 8
	if _, cols := shape(groupJobs(jobs, 1)); !reflect.DeepEqual(cols, [][]int{all8[:7], {7}}) {
		t.Errorf("a changed quantum: groups %v, want the odd column apart", cols)
	}
}

// TestGroupFailureStaysInCell: in one group, a gate error, a gate panic
// and an unconstructible system each fail their own cell with their own
// sentinel, and every other member equals its solo run. A retried panic
// re-runs alone and counts the group's attempt. A generator panic fails
// every member still running.
func TestGroupFailureStaysInCell(t *testing.T) {
	withProcs(t, 1) // one benchmark at one worker: the sweep is one group
	opt := testOptions()
	opt.KeepGoing = true
	refused := errors.New("injected gate failure")
	var panics atomic.Int64
	opt.cellGate = func(exp, bench, system string) error {
		switch system {
		case "refused":
			return refused
		case "panics":
			panics.Add(1)
			panic("injected cell panic")
		}
		return nil
	}
	fig := Figure{ID: "contain", columns: columns(Base(), named("refused", VB(16<<10)), VB(16<<10),
		named("panics", NCD()), System{Name: "poisoned", NC: NCKind(99)}, VXPFrac(16<<10, 5, 32))}
	benches := []*workload.Bench{workload.FFT(opt.Scale)}
	for _, retries := range []int{0, 1} {
		panics.Store(0)
		o := opt
		o.Retries = retries
		jobs, cols, _ := fig.jobs(benches, o)
		if n := len(groupJobs(jobs, runtime.GOMAXPROCS(0))); n != 1 {
			t.Fatalf("%d groups, want 1", n)
		}
		results, failed, err := runMatrix(fig.ID, jobs, 1, cols)
		if err != nil {
			t.Fatalf("retries=%d: keep-going sweep failed outright: %v", retries, err)
		}
		want := map[int]struct {
			err      error
			attempts int
		}{1: {refused, 1}, 3: {ErrCellPanic, 1 + retries}, 4: {ErrConfig, 1}}
		if len(failed) != len(want) {
			t.Fatalf("retries=%d: failed cells %v, want columns 1, 3 and 4", retries, failed)
		}
		for _, f := range failed {
			w, ok := want[f.Col]
			if !ok || !errors.Is(f.Err, w.err) || f.Attempts != w.attempts {
				t.Errorf("retries=%d: failure %v after %d attempts, want column %d to fail with %v after %d",
					retries, f, f.Attempts, f.Col, w.err, w.attempts)
			}
		}
		if n := panics.Load(); n != int64(1+retries) {
			t.Errorf("retries=%d: the panicking cell ran %d times, want %d", retries, n, 1+retries)
		}
		for _, j := range jobs {
			if _, bad := want[j.col]; bad {
				continue
			}
			j.opt.cellGate = nil
			if got := results[0][j.col]; !reflect.DeepEqual(got, solo(t, j)) {
				t.Errorf("retries=%d: %s differs from its solo run beside the failing cells", retries, j.sys.Name)
			}
		}
	}

	t.Run("generator", func(t *testing.T) {
		broken := &workload.Bench{Name: "broken", SharedBytes: 1 << 20} // no generator: EmitBatch panics
		var jobs []runJob
		for _, s := range []System{Base(), named("refused", VB(16<<10)), VB(16 << 10)} {
			jobs = append(jobs, runJob{bench: broken, sys: s, opt: opt})
		}
		out := runGroup(context.Background(), "broken", jobs, time.Now)
		for i, w := range []error{ErrCellPanic, refused, ErrCellPanic} {
			if !errors.Is(out[i].err, w) {
				t.Errorf("%s: error %v, want %v", jobs[i].sys.Name, out[i].err, w)
			}
		}
	})
}

// TestGroupTimeoutChargesEachMember drives a group on a clock that
// advances only as members apply references, each at its own cost per
// reference. A member is charged its own applies, never its
// groupmates': a group whose total time passes the budget completes as
// long as no member's own charge does, and the member whose charge
// passes it fails with context.DeadlineExceeded. Cholesky's stream
// spans several chunks, so the charges accumulate across them.
func TestGroupTimeoutChargesEachMember(t *testing.T) {
	opt := testOptions()
	b := workload.ByName("Cholesky", opt.Scale)
	systems := []System{Base(), VB(16 << 10), NCD()}
	refs := solo(t, runJob{bench: b, sys: Base(), opt: opt}).Refs
	budget := time.Duration(2 * refs) // 2ns per reference of one cell
	for _, tc := range []struct {
		name    string
		cost    []int64 // clock nanoseconds per reference each member applies
		expired int     // the member that times out, or -1
	}{
		{"within", []int64{1, 1, 1}, -1},
		{"one-over", []int64{1, 1, 3}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var jobs []runJob
			var progress []*Progress
			for _, s := range systems {
				o := opt
				o.CellTimeout = budget
				o.Progress = new(Progress)
				progress = append(progress, o.Progress)
				jobs = append(jobs, runJob{bench: b, sys: s, opt: o})
			}
			epoch := time.Unix(0, 0)
			clock := func() time.Time {
				var ns int64
				for i, p := range progress {
					ns += tc.cost[i] * p.Refs.Load()
				}
				return epoch.Add(time.Duration(ns))
			}
			out := runGroup(context.Background(), "budget", jobs, clock)
			if spent := clock().Sub(epoch); spent <= budget {
				t.Fatalf("group spent %v, want more than the %v budget", spent, budget)
			}
			for i, j := range jobs {
				if i == tc.expired {
					if !errors.Is(out[i].err, context.DeadlineExceeded) {
						t.Errorf("%s: error %v, want context.DeadlineExceeded", j.sys.Name, out[i].err)
					}
					if n := progress[i].Refs.Load(); n >= refs {
						t.Errorf("%s: applied all %d references before timing out", j.sys.Name, n)
					}
					continue
				}
				if out[i].err != nil {
					t.Fatalf("%s: %v, though its own charge stays within the budget", j.sys.Name, out[i].err)
				}
				j.opt.CellTimeout = 0
				if !reflect.DeepEqual(out[i].res, solo(t, j)) {
					t.Errorf("%s: differs from its solo run", j.sys.Name)
				}
			}
		})
	}
}
