package explore

import (
	"bytes"
	"context"
	"testing"

	"dsmnc/serve"
)

// newTestScheduler builds a small real scheduler for engine tests.
func newTestScheduler(t *testing.T) *serve.Scheduler {
	t.Helper()
	s, err := serve.New(serve.Config{Workers: 2, QueueDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Drain(context.Background()) })
	return s
}

// TestEngineEndToEnd drives a small exploration at ScaleTest through a
// real scheduler twice and requires: correct phase ordering, every
// enumerated point simulated and reported, a non-empty frontier whose
// points are exactly the report's on_frontier points, and byte-identical
// canonical reports across the two runs (the second coalescing onto the
// first run's finished jobs).
func TestEngineEndToEnd(t *testing.T) {
	s := newTestScheduler(t)
	spec := Space{
		Bench:      "FFT",
		Scale:      "test",
		Tech:       []string{"none", "sram", "dram"},
		Orgs:       []string{"nc", "vb", "vp", "vxp"},
		NCKB:       []int{4, 16},
		PCFrac:     []int{5},
		Thresholds: []int{32},
		Contention: true,
	}

	var phases []string
	eng := &Engine{Sub: s, OnProgress: func(p Progress) { phases = append(phases, p.Phase) }}
	rep, err := eng.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}

	if rep.Enumerated != 1+3*2+2+1 { // none + {nc,vb,vp}x2 sizes + vxp x2 + dram
		t.Errorf("enumerated %d", rep.Enumerated)
	}
	if len(phases) != rep.Enumerated+2 || phases[0] != "enumerated" || phases[1] != "simulated" ||
		phases[len(phases)-1] != "frontier" {
		t.Errorf("phase sequence %v", phases)
	}
	if len(rep.Points) != rep.Enumerated || len(rep.Frontier) == 0 {
		t.Fatalf("%d points for %d enumerated, frontier %d", len(rep.Points), rep.Enumerated, len(rep.Frontier))
	}
	onFrontier := 0
	for _, p := range rep.Points {
		if p.OnFrontier {
			onFrontier++
		}
		if p.SimStall <= 0 && p.Name != "base" {
			t.Errorf("point %s has no simulated stall", p.Name)
		}
		if spec.Contention && p.ContentionStall < p.SimStall {
			t.Errorf("point %s: contention stall %d below flat stall %d", p.Name, p.ContentionStall, p.SimStall)
		}
	}
	if onFrontier != len(rep.Frontier) {
		t.Errorf("%d on_frontier points but %d frontier entries", onFrontier, len(rep.Frontier))
	}
	for i := 1; i < len(rep.Frontier); i++ {
		a, b := rep.Frontier[i-1], rep.Frontier[i]
		if a.CostBits > b.CostBits {
			t.Errorf("frontier not cost-ordered: %s then %s", a.Name, b.Name)
		}
	}

	bytes1, err := rep.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := (&Engine{Sub: s}).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	bytes2, err := rep2.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes1, bytes2) {
		t.Errorf("re-running the same spec changed the report bytes:\n%s\nvs\n%s", bytes1, bytes2)
	}
}

// TestEngineBadSpec: engine failures are ErrBadSpace for spec problems.
func TestEngineBadSpec(t *testing.T) {
	eng := &Engine{Sub: newTestScheduler(t)}
	if _, err := eng.Run(context.Background(), Space{Bench: "nope"}); err == nil {
		t.Fatal("bad bench accepted")
	}
}

// TestEngineContextCancel: a dead context aborts the exploration.
func TestEngineContextCancel(t *testing.T) {
	eng := &Engine{Sub: newTestScheduler(t)}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Run(ctx, Space{Bench: "FFT", Scale: "test"}); err == nil {
		t.Fatal("canceled context did not abort the run")
	}
}
