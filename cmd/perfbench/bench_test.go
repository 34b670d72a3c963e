package main

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"dsmnc"
	"dsmnc/serve"
	"dsmnc/workload"
)

func TestCellGenDeterministicAndUnique(t *testing.T) {
	const n = 2000
	draw := func(seed int64, stream uint64) []cell {
		g := newCellGen(seed, stream)
		out := make([]cell, n)
		for i := range out {
			out[i] = g.next()
		}
		return out
	}
	a, b := draw(7, streamUnique), draw(7, streamUnique)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed drew different cells")
	}
	if reflect.DeepEqual(a[:50], draw(8, streamUnique)[:50]) {
		t.Fatal("different seeds drew the same cells")
	}
	if reflect.DeepEqual(a[:50], draw(7, streamFleet)[:50]) {
		t.Fatal("different streams of one seed drew the same cells")
	}
	seen := map[cell]bool{}
	for i, c := range a {
		if seen[c] {
			t.Fatalf("cell %d repeats %+v", i, c)
		}
		seen[c] = true
	}
	// Every round of eight draws covers every benchmark once.
	for r := 0; r+8 <= n; r += 8 {
		benches := map[string]bool{}
		for _, c := range a[r : r+8] {
			benches[c.Bench] = true
		}
		if len(benches) != 8 {
			t.Fatalf("round at %d covers %d benchmarks", r, len(benches))
		}
	}
}

func TestCellsAreValidRequests(t *testing.T) {
	g := newCellGen(3, streamUnique)
	for range 500 {
		c := g.next()
		data, err := json.Marshal(c.request(servedScale))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := serve.ParseRequest(data); err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
		if s := c.system(); s.Name == "" || (c.Kind != "base" && s.NCWays != c.Ways) {
			t.Fatalf("%+v compiles to %+v", c, s)
		}
	}
}

func TestSweepSystems(t *testing.T) {
	a, b := sweepSystems(5, 0), sweepSystems(5, 0)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("sweep systems are not deterministic")
	}
	if len(a) != 8 {
		t.Fatalf("%d sweep systems, want 5 golden + 3 drawn", len(a))
	}
	names := map[string]bool{}
	for _, s := range a {
		if names[s.Name] {
			t.Fatalf("two sweep columns named %s", s.Name)
		}
		names[s.Name] = true
	}
	if !strings.HasPrefix(a[5].Name, "NCD") || a[6].PCFraction == 0 || a[7].Counters != dsmnc.CountersNCSet {
		t.Fatalf("drawn systems are not NCD, a page-cache organization and vxp: %v, %v, %v", a[5].Name, a[6].Name, a[7].Name)
	}
}

func TestTailRule(t *testing.T) {
	for _, tc := range []struct {
		n      int
		p      float64
		beyond int
	}{
		{0, 90, 0}, {99, 90, 9}, {100, 90, 10}, {160, 90, 16},
		{999, 99, 9}, {1000, 99, 10}, {10000, 99.9, 10},
	} {
		if got := beyond(tc.n, tc.p); got != tc.beyond {
			t.Errorf("beyond(%d, p%g) = %d, want %d", tc.n, tc.p, got, tc.beyond)
		}
		var chk checker
		checkTail(&chk, "w", tc.n, tc.p)
		if chk.ok() != (tc.beyond >= minBeyond) {
			t.Errorf("n=%d, p%g: tail check ok = %v with %d beyond", tc.n, tc.p, chk.ok(), tc.beyond)
		}
	}
	xs := make([]float64, 0, 100)
	for i := 100; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	if got := percentile(xs, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %g, want 90", got)
	}
	if got := percentile(xs, 100); got != 100 {
		t.Errorf("p100 of 1..100 = %g, want 100", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{id: 1, layer: "root", start: 0, end: 100},
		{id: 2, parent: 1, layer: "a", start: 10, end: 30},
		{id: 3, parent: 1, layer: "b", start: 20, end: 50}, // overlaps a
		{id: 4, parent: 3, layer: "c", start: 25, end: 35},
		{id: 5, parent: 1, layer: "d", start: 90, end: 130}, // runs past its parent
	}
	self := selfTimes(spans)
	want := map[string]int64{"root": 100 - 40 - 10, "a": 20, "b": 20, "c": 10, "d": 40}
	for layer, ns := range want {
		if got := self[layer].Nanoseconds(); got != ns {
			t.Errorf("self(%s) = %d, want %d", layer, got, ns)
		}
	}
	if got := covered(spans[0], []span{spans[1], spans[2], spans[4]}); got != 50 {
		t.Errorf("covered = %d, want 50 (40 + d clipped to 10)", got)
	}
}

func TestCheckSweepCatchesCounterMismatch(t *testing.T) {
	golden, err := loadGolden("../..")
	if err != nil {
		t.Fatal(err)
	}
	systems := sweepSystems(1, 0)
	got := map[string]dsmnc.Result{}
	for _, bench := range workload.Names() {
		for _, s := range systems {
			g, ok := golden[cellKey(bench, goldenFile(s.Name))]
			if !ok {
				g.Refs = golden[cellKey(bench, "base")].Refs
			}
			got[cellKey(bench, s.Name)] = dsmnc.Result{Refs: g.Refs, Counters: g.Stats}
		}
	}
	var chk checker
	if bad := checkSweep(&chk, golden, systems, got); bad != 0 || !chk.ok() {
		t.Fatalf("clean sweep flagged %d cells: %v", bad, chk.failures)
	}

	r := got[cellKey("Ocean", "vb")]
	r.Counters.NCHits.Read++
	got[cellKey("Ocean", "vb")] = r
	d := got[cellKey("FFT", systems[6].Name)]
	d.Refs--
	got[cellKey("FFT", systems[6].Name)] = d
	chk = checker{}
	if bad := checkSweep(&chk, golden, systems, got); bad != 2 || chk.ok() {
		t.Fatalf("injected mismatches flagged %d cells, want 2", bad)
	}
	all := strings.Join(chk.failures, "\n")
	if !strings.Contains(all, "NCHits") || !strings.Contains(all, "FFT/"+systems[6].Name) {
		t.Fatalf("failures do not name the injected fields:\n%s", all)
	}
}

func TestTracedCellRunnerMatchesRunCell(t *testing.T) {
	opt := dsmnc.DefaultOptions()
	opt.Scale = workload.ScaleTest
	b := workload.ByName("Ocean", opt.Scale)
	sys := dsmnc.VXPFrac(16<<10, 5, 32)
	want, err := dsmnc.RunCell(context.Background(), "", b, sys, opt)
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder()
	run, err := runTracedCell(rec, 1, b, sys, opt)
	if err != nil {
		t.Fatal(err)
	}
	if d := diffResult(dsmnc.Result{Refs: run.refs, Counters: run.counters}, want.Refs, want.Counters); d != "" {
		t.Fatal(d)
	}
	if refs := benchRefs(opt.Scale)["Ocean"]; refs != want.Refs {
		t.Fatalf("benchRefs counted %d refs, RunCell applied %d", refs, want.Refs)
	}
	// The cell's self times add up to its duration.
	var sum int64
	for _, d := range selfTimes(rec.snapshot()) {
		sum += d.Nanoseconds()
	}
	if sum != run.total.Nanoseconds() {
		t.Fatalf("self times sum to %dns, cell took %dns", sum, run.total.Nanoseconds())
	}
}
