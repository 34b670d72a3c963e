package dsmnc

// The resume acceptance suite (docs/robustness.md §4): the
// interrupted-sweep journal drill, journal damage handling, and retry
// classification.

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dsmnc/workload"
)

// TestInterruptedSweepResumes is the end-to-end crash/recovery drill:
// a journaled fig9 sweep is killed after 7 cells via the injected
// per-cell gate, then resumed from the journal; the merged experiment
// must be identical to an uninterrupted run — rows, normalization and
// Failed bookkeeping — having re-executed only the unfinished cells.
func TestInterruptedSweepResumes(t *testing.T) {
	if testing.Short() {
		t.Skip("three fig9 passes are too heavy for -short")
	}
	opt := testOptions()
	want := mustExp(t, "fig9", opt)

	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	j1, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	killed := errors.New("injected mid-sweep kill")
	var starts atomic.Int64
	opt1 := opt
	opt1.Journal = j1
	opt1.cellGate = func(exp, bench, system string) error {
		if starts.Add(1) > 7 {
			return killed
		}
		return nil
	}
	if _, err := figure(t, "fig9").Run(opt1); !errors.Is(err, killed) {
		t.Fatalf("interrupted sweep error = %v, want the injected kill", err)
	}
	j1.Close()

	j2, err := OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if got := j2.Completed(); got != 7 {
		t.Fatalf("journal holds %d cells after the kill, want 7", got)
	}
	total := len(workload.All(opt.Scale)) * (len(figure(t, "fig9").columns) + 1)
	var reruns atomic.Int64
	opt2 := opt
	opt2.Journal = j2
	opt2.cellGate = func(exp, bench, system string) error {
		reruns.Add(1)
		return nil
	}
	got := mustExp(t, "fig9", opt2)
	if n := reruns.Load(); n != int64(total-7) {
		t.Fatalf("resume re-ran %d cells, want %d", n, total-7)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed experiment differs from the uninterrupted run:\ngot  %+v\nwant %+v", got, want)
	}
}

// smallSweep is a cheap one-bench, two-system sweep for journal tests.
func smallSweep(t *testing.T, opt Options) Experiment {
	t.Helper()
	benches := []*workload.Bench{workload.FFT(opt.Scale)}
	exp, err := Sweep("journal-test", "journal test sweep", benches,
		[]System{Base(), VB(16 << 10)}, opt)
	if err != nil {
		t.Fatal(err)
	}
	return exp
}

// TestJournalSkipsCompletedCells: a resumed sweep restores journaled
// cells byte-exactly (JSON round trip included) and re-runs nothing.
func TestJournalSkipsCompletedCells(t *testing.T) {
	opt := testOptions()
	want := smallSweep(t, opt)

	path := filepath.Join(t.TempDir(), "j.jsonl")
	j1, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	opt1 := opt
	opt1.Journal = j1
	opt1.Progress = &Progress{}
	smallSweep(t, opt1)
	j1.Close()
	if n := opt1.Progress.JournalWrites.Load(); n != 2 {
		t.Fatalf("journal writes = %d, want 2", n)
	}
	if _, ok := opt1.Progress.LastJournalWrite(); !ok {
		t.Fatal("no last-journal-write timestamp")
	}

	j2, err := OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	var reruns atomic.Int64
	opt2 := opt
	opt2.Journal = j2
	opt2.Progress = &Progress{}
	opt2.cellGate = func(exp, bench, system string) error {
		reruns.Add(1)
		return nil
	}
	got := smallSweep(t, opt2)
	if n := reruns.Load(); n != 0 {
		t.Fatalf("resume re-ran %d cells, want 0", n)
	}
	if done, total := opt2.Progress.CellsDone.Load(), opt2.Progress.CellsTotal.Load(); done != 2 || total != 2 {
		t.Fatalf("progress cells %d/%d, want 2/2", done, total)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("journal-restored experiment differs:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestJournalToleratesTornTail: an unterminated final record — the
// leftover of a crash mid-append — is dropped on resume; the intact
// records survive.
func TestJournalToleratesTornTail(t *testing.T) {
	opt := testOptions()
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j1, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	opt1 := opt
	opt1.Journal = j1
	smallSweep(t, opt1)
	j1.Close()

	intact, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"exp":"journal-test","bench":"FF`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, err := OpenJournal(path, true)
	if err != nil {
		t.Fatalf("torn tail rejected: %v", err)
	}
	defer j2.Close()
	if got := j2.Completed(); got != 2 {
		t.Fatalf("completed cells = %d, want the 2 intact records", got)
	}
	// The torn fragment must be gone so the next append lands cleanly.
	if st, err := os.Stat(path); err != nil || st.Size() != intact.Size() {
		t.Fatalf("journal not truncated back to %d bytes: %v %v", intact.Size(), st.Size(), err)
	}
}

// TestJournalRejectsCorruptRecord: terminated garbage is corruption,
// not a torn append, and resume refuses it with the sentinel.
func TestJournalRejectsCorruptRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	if err := os.WriteFile(path, []byte("this is not a record\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(path, true); !errors.Is(err, ErrBadJournal) {
		t.Fatalf("err = %v, want ErrBadJournal", err)
	}
}

// TestJournalRejectsFingerprintMismatch: resuming under different
// result-determining options must fail loudly, not mix results.
func TestJournalRejectsFingerprintMismatch(t *testing.T) {
	opt := testOptions()
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j1, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	opt1 := opt
	opt1.Journal = j1
	smallSweep(t, opt1)
	j1.Close()

	j2, err := OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	opt2 := opt
	opt2.Check = true // changes the fingerprint
	opt2.Journal = j2
	benches := []*workload.Bench{workload.FFT(opt2.Scale)}
	_, err = Sweep("journal-test", "journal test sweep", benches,
		[]System{Base(), VB(16 << 10)}, opt2)
	if !errors.Is(err, ErrJournalMismatch) {
		t.Fatalf("err = %v, want ErrJournalMismatch", err)
	}
}

// gateSweep runs a one-cell sweep whose gate injects failures.
func gateSweep(t *testing.T, opt Options) (Experiment, error) {
	t.Helper()
	return Sweep("retry-test", "retry test sweep",
		[]*workload.Bench{workload.FFT(opt.Scale)}, []System{Base()}, opt)
}

// TestRetriesTransientFailure: a cell that times out twice and then
// succeeds completes the sweep when Retries covers the failures.
func TestRetriesTransientFailure(t *testing.T) {
	opt := testOptions()
	opt.Retries = 2
	var calls atomic.Int64
	opt.cellGate = func(exp, bench, system string) error {
		if calls.Add(1) <= 2 {
			return context.DeadlineExceeded
		}
		return nil
	}
	exp, err := gateSweep(t, opt)
	if err != nil {
		t.Fatalf("sweep failed despite retries: %v", err)
	}
	if n := calls.Load(); n != 3 {
		t.Fatalf("cell attempts = %d, want 3", n)
	}
	if exp.Rows[0].Values[0].Total() <= 0 {
		t.Fatal("retried cell produced no result")
	}
}

// TestRetriesExhaustedRecordsAttempts: a cell that never stops timing
// out fails with the attempt count on its CellFailure.
func TestRetriesExhaustedRecordsAttempts(t *testing.T) {
	opt := testOptions()
	opt.KeepGoing = true
	opt.Retries = 2
	opt.cellGate = func(exp, bench, system string) error {
		return context.DeadlineExceeded
	}
	exp, err := gateSweep(t, opt)
	if err != nil {
		t.Fatalf("keep-going sweep failed outright: %v", err)
	}
	f, ok := exp.FailedCell(0, 0)
	if !ok {
		t.Fatal("exhausted cell not recorded as failed")
	}
	if !errors.Is(f.Err, context.DeadlineExceeded) {
		t.Fatalf("failure error = %v, want DeadlineExceeded", f.Err)
	}
	if f.Attempts != 3 {
		t.Fatalf("attempts = %d, want 1 run + 2 retries", f.Attempts)
	}
	if !strings.Contains(f.String(), "3 attempts") {
		t.Fatalf("failure string omits attempts: %q", f.String())
	}
}

// TestPermanentFailureNotRetried: configuration errors repeat
// identically, so the retry budget must not touch them.
func TestPermanentFailureNotRetried(t *testing.T) {
	opt := testOptions()
	opt.KeepGoing = true
	opt.Retries = 3
	poisoned := System{Name: "poisoned", NC: NCKind(99)}
	exp, err := Sweep("retry-test", "permanent failure sweep",
		[]*workload.Bench{workload.FFT(opt.Scale)}, []System{poisoned}, opt)
	if err != nil {
		t.Fatalf("keep-going sweep failed outright: %v", err)
	}
	f, ok := exp.FailedCell(0, 0)
	if !ok {
		t.Fatal("poisoned cell not recorded as failed")
	}
	if !errors.Is(f.Err, ErrConfig) {
		t.Fatalf("failure error = %v, want ErrConfig", f.Err)
	}
	if f.Attempts != 1 {
		t.Fatalf("permanent failure ran %d times, want 1", f.Attempts)
	}
}

// TestPanickedCellRetried: a recovered panic is transient — the cell
// re-runs and the sweep completes.
func TestPanickedCellRetried(t *testing.T) {
	opt := testOptions()
	opt.Retries = 1
	var calls atomic.Int64
	opt.cellGate = func(exp, bench, system string) error {
		if calls.Add(1) == 1 {
			panic("injected cell panic")
		}
		return nil
	}
	if _, err := gateSweep(t, opt); err != nil {
		t.Fatalf("sweep failed despite panic retry: %v", err)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("cell attempts = %d, want 2", n)
	}
}

// TestProgressHeartbeat: the reporter emits the counters it was given.
func TestProgressHeartbeat(t *testing.T) {
	p := &Progress{}
	p.Refs.Add(1000)
	p.CellsTotal.Add(4)
	p.CellsDone.Add(1)
	p.noteJournal()
	var buf bytes.Buffer
	stop := p.Heartbeat(&buf, time.Millisecond)
	time.Sleep(50 * time.Millisecond)
	stop() // waits for the reporter goroutine; buf is safe to read after
	out := buf.String()
	if out == "" {
		t.Fatal("heartbeat emitted nothing")
	}
	for _, want := range []string{"1000 refs", "cells 1/4", "last journal write"} {
		if !strings.Contains(out, want) {
			t.Fatalf("heartbeat %q is missing %q", out, want)
		}
	}
}
