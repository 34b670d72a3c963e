package explore

import (
	"context"
	"errors"
	"testing"
	"time"

	"dsmnc/telemetry"
)

func newTestRunner(t *testing.T) *Runner {
	t.Helper()
	return &Runner{Engine: &Engine{Sub: newTestScheduler(t)}}
}

func smallSpec(bench string) Space {
	return Space{Bench: bench, Scale: "test", Orgs: []string{"vb"}, NCKB: []int{16}}
}

// TestRunnerCoalesceAndReport: the same spec submitted twice lands on
// one run; the finished run serves a report; junk IDs are ErrUnknownRun.
func TestRunnerCoalesceAndReport(t *testing.T) {
	ru := newTestRunner(t)
	st, fresh, err := ru.Start(smallSpec("FFT"))
	if err != nil {
		t.Fatal(err)
	}
	if !fresh {
		t.Fatal("first Start did not begin a run")
	}
	st2, fresh2, err := ru.Start(smallSpec("FFT"))
	if err != nil {
		t.Fatal(err)
	}
	if fresh2 || st2.ID != st.ID {
		t.Fatalf("resubmission started a new run: %v %q vs %q", fresh2, st2.ID, st.ID)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	final, err := ru.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != RunDone || final.Error != "" {
		t.Fatalf("run finished %s (%s)", final.State, final.Error)
	}
	if final.Progress.Phase != "frontier" {
		t.Errorf("terminal progress phase %q", final.Progress.Phase)
	}
	rep, _, err := ru.Report(st.ID)
	if err != nil || rep == nil {
		t.Fatalf("Report: %v (report %v)", err, rep)
	}
	if rep.Fingerprint != st.ID {
		t.Errorf("report fingerprint %q != run ID %q", rep.Fingerprint, st.ID)
	}

	// Coalescing after completion still returns the cached run.
	st3, fresh3, err := ru.Start(smallSpec("FFT"))
	if err != nil || fresh3 || st3.State != RunDone {
		t.Fatalf("post-completion Start: fresh=%v state=%s err=%v", fresh3, st3.State, err)
	}

	if _, err := ru.Status("no-such-run"); !errors.Is(err, ErrUnknownRun) {
		t.Errorf("unknown ID: %v", err)
	}
	if _, _, err := ru.Report("no-such-run"); !errors.Is(err, ErrUnknownRun) {
		t.Errorf("unknown ID report: %v", err)
	}
	if _, err := ru.Wait(context.Background(), "no-such-run"); !errors.Is(err, ErrUnknownRun) {
		t.Errorf("unknown ID wait: %v", err)
	}
	if _, err := ru.Watch("no-such-run"); !errors.Is(err, ErrUnknownRun) {
		t.Errorf("unknown ID watch: %v", err)
	}
}

// TestRunnerBusyBound: MaxConcurrent caps distinct active explorations.
func TestRunnerBusyBound(t *testing.T) {
	ru := newTestRunner(t)
	ru.MaxConcurrent = 1
	st, _, err := ru.Start(smallSpec("FFT"))
	if err != nil {
		t.Fatal(err)
	}
	// A distinct spec while the first may still be active must either be
	// rejected busy or (if the first already finished) start cleanly.
	if _, _, err := ru.Start(smallSpec("LU")); err != nil && !errors.Is(err, ErrRunnerBusy) {
		t.Fatalf("second Start: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := ru.Wait(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	// With the first terminal, a new spec fits under the bound again.
	if _, _, err := ru.Start(smallSpec("Radix")); err != nil {
		t.Fatalf("Start after drain: %v", err)
	}
}

// TestRunnerWatchDeliversTerminal: a watcher always receives the
// terminal status before its channel closes, and watching a finished
// run yields that status immediately.
func TestRunnerWatchDeliversTerminal(t *testing.T) {
	ru := newTestRunner(t)
	st, _, err := ru.Start(smallSpec("FFT"))
	if err != nil {
		t.Fatal(err)
	}
	ch, err := ru.Watch(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	var last RunStatus
	sawAny := false
	for s := range ch {
		last, sawAny = s, true
	}
	if !sawAny || last.State != RunDone {
		t.Fatalf("watch ended on %+v (saw any: %v)", last, sawAny)
	}

	ch2, err := ru.Watch(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	s, ok := <-ch2
	if !ok || s.State != RunDone {
		t.Fatalf("terminal watch first recv %+v ok=%v", s, ok)
	}
	if _, ok := <-ch2; ok {
		t.Error("terminal watch channel not closed after the snapshot")
	}
}

// TestRunnerEviction: Keep bounds remembered terminal runs FIFO.
func TestRunnerEviction(t *testing.T) {
	ru := newTestRunner(t)
	ru.Keep = 2
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var ids []string
	for _, bench := range []string{"FFT", "LU", "Radix"} {
		st, _, err := ru.Start(smallSpec(bench))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ru.Wait(ctx, st.ID); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	if _, err := ru.Status(ids[0]); !errors.Is(err, ErrUnknownRun) {
		t.Errorf("oldest run not evicted: %v", err)
	}
	for _, id := range ids[1:] {
		if _, err := ru.Status(id); err != nil {
			t.Errorf("recent run %s evicted: %v", id, err)
		}
	}
}

// TestRunnerBadSpec: a broken spec is rejected synchronously.
func TestRunnerBadSpec(t *testing.T) {
	ru := newTestRunner(t)
	if _, _, err := ru.Start(Space{Bench: "nope"}); !errors.Is(err, ErrBadSpace) {
		t.Fatalf("bad spec: %v", err)
	}
}

// TestRunnerMetrics: the dsmnc_explore_* series register and reflect a
// finished run.
func TestRunnerMetrics(t *testing.T) {
	ru := newTestRunner(t)
	reg := telemetry.NewRegistry()
	if err := ru.RegisterMetrics(reg); err != nil {
		t.Fatal(err)
	}
	st, _, err := ru.Start(smallSpec("FFT"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := ru.Wait(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	if got := ru.started.Load(); got != 1 {
		t.Errorf("started %d", got)
	}
	if got := ru.finished.Load(); got != 1 {
		t.Errorf("finished %d", got)
	}
	if got := ru.enumerated.Load(); got != 2 { // base + vb-16K
		t.Errorf("enumerated %d", got)
	}
	if ru.simulated.Load() != ru.enumerated.Load() {
		t.Errorf("simulated %d != enumerated %d", ru.simulated.Load(), ru.enumerated.Load())
	}
}
