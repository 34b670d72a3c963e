package dsmnc

// The checkpoint/resume acceptance suite (docs/robustness.md §4):
// facade-level snapshot round-trips across the paper's principal
// organizations, the interrupted-sweep journal drill, retry
// classification, and mid-cell checkpointing.

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

	"dsmnc/trace"
	"dsmnc/workload"
)

// resumeSystems are the organizations the tentpole contract names.
func resumeSystems() []System {
	return []System{
		Base(), NC(16 << 10), VB(16 << 10), VP(16 << 10), VXPFrac(16<<10, 5, 32),
	}
}

// TestSnapshotRoundTripSystems proves the facade-level resume contract:
// run k references, Snapshot, RestoreFor, run the rest via trace.Skip —
// bit-identical counters versus the uninterrupted run, with the
// coherence checker attached throughout.
func TestSnapshotRoundTripSystems(t *testing.T) {
	if testing.Short() {
		t.Skip("10 checked round trips exceed the race-pass budget")
	}
	opt := testOptions()
	opt.Check = true
	for _, bname := range []string{"FFT", "Radix"} {
		b := workload.ByName(bname, opt.Scale)
		var refs []trace.Ref
		b.Emit(opt.Geometry, opt.Quantum, func(r trace.Ref) { refs = append(refs, r) })
		for _, sys := range resumeSystems() {
			t.Run(bname+"/"+sys.Name, func(t *testing.T) {
				full, err := BuildFor(b.SharedBytes, sys, opt)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := full.Run(trace.NewSliceSource(refs)); err != nil {
					t.Fatalf("uninterrupted run: %v", err)
				}

				k := int64(len(refs) / 3)
				part, err := BuildFor(b.SharedBytes, sys, opt)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := part.Run(trace.Limit(trace.NewSliceSource(refs), k)); err != nil {
					t.Fatalf("prefix run: %v", err)
				}
				var buf bytes.Buffer
				if err := part.Snapshot(&buf); err != nil {
					t.Fatalf("snapshot: %v", err)
				}
				resumed, err := RestoreFor(&buf, b.SharedBytes, sys, opt)
				if err != nil {
					t.Fatalf("restore: %v", err)
				}
				if got := resumed.RefsApplied(); got != k {
					t.Fatalf("RefsApplied = %d, want %d", got, k)
				}
				if _, err := resumed.Run(trace.Skip(trace.NewSliceSource(refs), k)); err != nil {
					t.Fatalf("resumed run: %v", err)
				}
				if resumed.Totals() != full.Totals() {
					t.Fatalf("counters diverge:\nresumed %+v\nfull    %+v",
						resumed.Totals(), full.Totals())
				}
			})
		}
	}
}

// TestRestoreForRejectsGarbage: the facade surfaces the snapshot
// sentinel, never a panic, for byte-level damage.
func TestRestoreForRejectsGarbage(t *testing.T) {
	opt := testOptions()
	b := workload.ByName("FFT", opt.Scale)
	if _, err := RestoreFor(bytes.NewReader([]byte("not a snapshot")),
		b.SharedBytes, Base(), opt); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("err = %v, want ErrBadSnapshot", err)
	}
}

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
	opt.RetryBackoff = time.Millisecond
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
	opt.RetryBackoff = time.Millisecond
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
	opt.RetryBackoff = time.Millisecond
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
	opt.RetryBackoff = time.Millisecond
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

// cancelAfterPolls is a context that reports cancellation once its Err
// method has been consulted more than `budget` times — a deterministic
// mid-run kill for the checkpoint tests (runCell polls Err every 1024
// applied references).
type cancelAfterPolls struct {
	context.Context
	budget atomic.Int64
}

func (c *cancelAfterPolls) Err() error {
	if c.budget.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// interruptCell runs one checkpointing cell and kills it after ~1024
// references, leaving a checkpoint file behind.
func interruptCell(t *testing.T, j runJob) {
	t.Helper()
	ctx := &cancelAfterPolls{Context: context.Background()}
	ctx.budget.Store(1)
	if _, err := runCell(ctx, "ckpt-test", j); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted cell error = %v, want context.Canceled", err)
	}
}

// checkpointFiles lists the checkpoint directory.
func checkpointFiles(t *testing.T, dir string) []os.DirEntry {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return ents
}

// TestCheckpointResumesMidCell: kill a checkpointing cell mid-run, run
// it again — it must resume from the checkpoint (not reference zero),
// produce a bit-identical Result, and clean up its checkpoint file.
func TestCheckpointResumesMidCell(t *testing.T) {
	opt := testOptions()
	b := workload.FFT(opt.Scale)
	sys := VB(16 << 10)
	want, err := Run(b, sys, opt)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	opt2 := opt
	opt2.CheckpointEvery = 256
	opt2.CheckpointDir = dir
	j := runJob{bench: b, sys: sys, opt: opt2}
	interruptCell(t, j)
	if n := len(checkpointFiles(t, dir)); n != 1 {
		t.Fatalf("checkpoint files after kill = %d, want 1", n)
	}

	prog := &Progress{}
	opt2.Progress = prog
	j.opt = opt2
	got, err := runCell(context.Background(), "ckpt-test", j)
	if err != nil {
		t.Fatalf("resumed cell: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed result differs from uninterrupted run:\ngot  %+v\nwant %+v", got, want)
	}
	applied := prog.Refs.Load()
	if applied <= 0 || applied >= want.Refs {
		t.Fatalf("resume applied %d of %d refs; it should skip the checkpointed prefix", applied, want.Refs)
	}
	// Checkpoints land on exact multiples of CheckpointEvery, and
	// progress counts exactly the references applied after the restore.
	if skipped := want.Refs - applied; skipped%opt2.CheckpointEvery != 0 {
		t.Fatalf("resumed from ref %d, not a multiple of CheckpointEvery %d", skipped, opt2.CheckpointEvery)
	}
	if n := len(checkpointFiles(t, dir)); n != 0 {
		t.Fatalf("checkpoint files after completion = %d, want 0", n)
	}
}

// TestCorruptCheckpointRestartsCell: a damaged checkpoint is discarded
// silently and the cell restarts from reference zero, still landing on
// the uninterrupted result.
func TestCorruptCheckpointRestartsCell(t *testing.T) {
	opt := testOptions()
	b := workload.FFT(opt.Scale)
	sys := VB(16 << 10)
	want, err := Run(b, sys, opt)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	opt2 := opt
	opt2.CheckpointEvery = 256
	opt2.CheckpointDir = dir
	j := runJob{bench: b, sys: sys, opt: opt2}
	interruptCell(t, j)
	ents := checkpointFiles(t, dir)
	if len(ents) != 1 {
		t.Fatalf("checkpoint files after kill = %d, want 1", len(ents))
	}
	ckpt := filepath.Join(dir, ents[0].Name())
	if err := os.WriteFile(ckpt, []byte("damaged beyond recognition"), 0o644); err != nil {
		t.Fatal(err)
	}

	prog := &Progress{}
	opt2.Progress = prog
	j.opt = opt2
	got, err := runCell(context.Background(), "ckpt-test", j)
	if err != nil {
		t.Fatalf("restarted cell: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("restarted result differs from uninterrupted run")
	}
	if applied := prog.Refs.Load(); applied != want.Refs {
		t.Fatalf("restart applied %d refs, want the full %d", applied, want.Refs)
	}
	if n := len(checkpointFiles(t, dir)); n != 0 {
		t.Fatalf("checkpoint files after completion = %d, want 0", n)
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
