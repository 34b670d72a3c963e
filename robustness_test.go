package dsmnc

// The robustness acceptance suite (docs/robustness.md): the invariant
// checker is green across the paper's system organizations on every
// workload, every corrupted reference stream is rejected with a typed
// error (never a panic) while legal perturbations are absorbed, and a
// poisoned sweep cell is contained by the keep-going harness instead of
// sinking the experiment.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"dsmnc/internal/sim"
	"dsmnc/memsys"
	"dsmnc/trace"
	"dsmnc/workload"
)

// TestCheckedMatrixHasNoViolations runs every workload under the checked
// simulator for each of the paper's principal organizations: one
// invariant violation anywhere fails with the full protocol state dump.
// `make check` and `make test` run it; under the race detector it would
// take most of go test's per-package budget, so -short skips it.
func TestCheckedMatrixHasNoViolations(t *testing.T) {
	if testing.Short() {
		t.Skip("checks every workload x organization; run without -short")
	}
	opt := testOptions()
	opt.Check = true
	systems := []System{
		Base(), NC(16 << 10), VB(16 << 10), VP(16 << 10), VXPFrac(16<<10, 5, 32),
	}
	for _, b := range workload.All(opt.Scale) {
		for _, sys := range systems {
			res, err := Run(b, sys, opt)
			if err != nil {
				t.Errorf("%s/%s: %v", b.Name, sys.Name, err)
				continue
			}
			if res.Refs == 0 {
				t.Errorf("%s/%s: checked run produced no refs", b.Name, sys.Name)
			}
		}
	}
}

// The fault tests edit the recorded FFT stream at fixed indices, so
// each one knows which reference must be rejected or where the stream
// breaks off.
const (
	badRefAt = 3001 // the corrupted reference of the rejection tests
	cutAt    = 2000 // where the truncated stream breaks off
)

// fftStream records FFT's reference stream at opt's scale.
func fftStream(opt Options) ([]trace.Ref, int64) {
	b := workload.FFT(opt.Scale)
	var rec recorder
	b.Emit(opt.Geometry, opt.Quantum, rec.add)
	return rec.refs, b.SharedBytes
}

// rejectAt corrupts reference badRefAt with edit and requires the
// checked machine (the per-reference Apply loop) and the unchecked one
// (ApplyBatch's hoisted loop) both to fail with sim.ErrBadRef, having
// applied exactly the references before the bad one.
func rejectAt(t *testing.T, edit func(r *trace.Ref, procs int)) {
	t.Helper()
	opt := testOptions()
	refs, shared := fftStream(opt)
	edit(&refs[badRefAt], opt.Geometry.Procs())
	for _, check := range []bool{true, false} {
		opt.Check = check
		opt.Progress = new(Progress)
		_, err := RunTrace(trace.NewSliceSource(refs), "fault", shared, VB(16<<10), opt)
		if !errors.Is(err, sim.ErrBadRef) {
			t.Fatalf("check=%v: error = %v, want sim.ErrBadRef", check, err)
		}
		if got := opt.Progress.Refs.Load(); got != badRefAt {
			t.Errorf("check=%v: applied %d references, want the %d before the bad one", check, got, badRefAt)
		}
	}
}

func TestFaultBitFlipAddrRejected(t *testing.T) {
	rejectAt(t, func(r *trace.Ref, _ int) { r.Addr |= 1 << memsys.AddrSpaceBits })
}

func TestFaultBadPIDRejected(t *testing.T) {
	rejectAt(t, func(r *trace.Ref, procs int) { r.PID = int32(procs) })
}

// cutSource replays its references and then reports a decode error, as
// a trace cut short mid-record does.
type cutSource struct{ *trace.SliceSource }

func (cutSource) Err() error { return fmt.Errorf("%w: stream cut short", trace.ErrBadTrace) }

func TestFaultTruncateRejected(t *testing.T) {
	opt := testOptions()
	opt.Check = true
	opt.Progress = new(Progress)
	refs, shared := fftStream(opt)
	_, err := RunTrace(cutSource{trace.NewSliceSource(refs[:cutAt])}, "fault", shared, VB(16<<10), opt)
	if !errors.Is(err, trace.ErrBadTrace) {
		t.Fatalf("truncation error = %v, want trace.ErrBadTrace", err)
	}
	if got := opt.Progress.Refs.Load(); got != cutAt {
		t.Errorf("applied %d references, want the %d before the cut", got, cutAt)
	}
}

// TestFaultLegalPerturbationsAbsorbed: duplicated and reordered windows
// are ugly but legal streams; the checked machine must absorb them with
// no invariant violations and no error.
func TestFaultLegalPerturbationsAbsorbed(t *testing.T) {
	const window, every = 64, 50 // every 50th 64-reference window is perturbed
	opt := testOptions()
	opt.Check = true
	refs, shared := fftStream(opt)
	var dup []trace.Ref
	for k := 0; k*window < len(refs); k++ {
		w := refs[k*window : min((k+1)*window, len(refs))]
		dup = append(dup, w...)
		if k%every == 0 {
			dup = append(dup, w...)
		}
	}
	swapped := slices.Clone(refs)
	for k := 0; (k+2)*window <= len(refs); k += every {
		a, b := swapped[k*window:(k+1)*window], swapped[(k+1)*window:(k+2)*window]
		for i := range a {
			a[i], b[i] = b[i], a[i]
		}
	}
	for _, tc := range []struct {
		name   string
		stream []trace.Ref
	}{{"duplicate-quantum", dup}, {"reorder-quantum", swapped}} {
		for _, sys := range []System{Base(), VB(16 << 10), VXPFrac(16<<10, 5, 32)} {
			res, err := RunTrace(trace.NewSliceSource(tc.stream), tc.name, shared, sys, opt)
			if err != nil {
				t.Errorf("%s/%s: %v", tc.name, sys.Name, err)
			} else if res.Refs != int64(len(tc.stream)) {
				t.Errorf("%s/%s: Refs = %d, want %d", tc.name, sys.Name, res.Refs, len(tc.stream))
			}
		}
	}
}

// TestTruncatedBinaryTraceRejected drives the real decoder end to end:
// a trace cut mid-record must surface ErrBadTrace from dsmnc.RunTrace.
func TestTruncatedBinaryTraceRejected(t *testing.T) {
	opt := testOptions()
	b := workload.FFT(opt.Scale)
	var rec recorder
	b.Emit(opt.Geometry, opt.Quantum, rec.add)
	raw := rec.encode(t)
	cut := raw[:len(raw)*2/3]
	r := trace.NewReader(bytes.NewReader(cut))
	r.SetLimits(opt.Geometry.Procs(), 0)
	_, err := RunTrace(r, "fft-cut", b.SharedBytes, Base(), opt)
	if !errors.Is(err, trace.ErrBadTrace) {
		t.Fatalf("cut trace error = %v, want trace.ErrBadTrace", err)
	}
}

// TestPoisonedSweepKeepGoing poisons exactly one cell of a small sweep
// with an unconstructible system: under KeepGoing the sweep completes,
// the other cells carry results, and exactly the poisoned cell is
// recorded as failed with ErrConfig.
func TestPoisonedSweepKeepGoing(t *testing.T) {
	opt := testOptions()
	opt.KeepGoing = true
	poisoned := System{Name: "poisoned", NC: NCKind(99)}
	benches := []*workload.Bench{workload.FFT(opt.Scale)}
	systems := []System{Base(), poisoned, VB(16 << 10)}
	exp, err := Sweep("poison-test", "poisoned sweep", benches, systems, opt)
	if err != nil {
		t.Fatalf("keep-going sweep failed outright: %v", err)
	}
	if len(exp.Failed) != 1 {
		t.Fatalf("failed cells = %v, want exactly the poisoned one", exp.Failed)
	}
	f, ok := exp.FailedCell(0, 1)
	if !ok || f.System != "poisoned" || f.Bench != "FFT" {
		t.Fatalf("failed cell = %+v", exp.Failed[0])
	}
	if !errors.Is(f.Err, ErrConfig) {
		t.Fatalf("poisoned cell error = %v, want ErrConfig", f.Err)
	}
	// The healthy columns still produced results.
	for _, col := range []int{0, 2} {
		if exp.Rows[0].Values[col].Total() <= 0 {
			t.Errorf("healthy column %d is empty: %+v", col, exp.Rows[0].Values[col])
		}
	}
}

// TestPoisonedSweepFailsFastWithoutKeepGoing: the same sweep without
// KeepGoing must return the poisoned cell's error.
func TestPoisonedSweepFailsFastWithoutKeepGoing(t *testing.T) {
	opt := testOptions()
	poisoned := System{Name: "poisoned", NC: NCKind(99)}
	benches := []*workload.Bench{workload.FFT(opt.Scale)}
	_, err := Sweep("poison-test", "poisoned sweep", benches,
		[]System{Base(), poisoned}, opt)
	if !errors.Is(err, ErrConfig) {
		t.Fatalf("sweep error = %v, want ErrConfig", err)
	}
}

// TestCellTimeoutCancelsRun: an already-expired per-cell budget stops the
// simulation through context cancellation instead of hanging or
// panicking.
func TestCellTimeoutCancelsRun(t *testing.T) {
	opt := testOptions()
	opt.KeepGoing = true
	opt.CellTimeout = time.Nanosecond
	benches := []*workload.Bench{workload.FFT(opt.Scale)}
	exp, err := Sweep("timeout-test", "timeout sweep", benches, []System{Base()}, opt)
	if err != nil {
		t.Fatalf("keep-going sweep failed outright: %v", err)
	}
	f, ok := exp.FailedCell(0, 0)
	if !ok {
		t.Fatal("expired cell not recorded as failed")
	}
	if !errors.Is(f.Err, context.DeadlineExceeded) {
		t.Fatalf("timeout error = %v, want context.DeadlineExceeded", f.Err)
	}
}

// TestRunCellCancellation: cancelling mid-run returns the context
// error from the public entry point.
func TestRunCellCancellation(t *testing.T) {
	opt := testOptions()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunCell(ctx, "", workload.FFT(opt.Scale), Base(), opt)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run error = %v, want context.Canceled", err)
	}
}

// recorder captures an emitted stream and re-encodes it in the binary
// trace format.
type recorder struct{ refs []trace.Ref }

func (r *recorder) add(ref trace.Ref) { r.refs = append(r.refs, ref) }

func (r *recorder) encode(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	for _, ref := range r.refs {
		if err := w.Write(ref); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzRunTrace feeds arbitrary bytes through the binary trace decoder
// into a checked 2x2-cluster machine. The decoder's limits are left
// unset, so the machine's own reference checks see every decoded
// reference. Each input either simulates in full — Refs equals the
// number of references the decoder yields — or fails with ErrBadTrace
// or ErrBadRef. An in-range stream is a legal program, so any other
// error (an ErrProtocol above all) is a simulator bug.
func FuzzRunTrace(f *testing.F) {
	var seed recorder
	for i := 0; i < 64; i++ {
		seed.add(trace.Ref{PID: int32(i % 4), Op: trace.Op(i % 3 / 2), Addr: memsys.Addr(i%5*memsys.PageBytes + i%7*memsys.BlockBytes)})
	}
	f.Add(seed.encode(f))
	opt := DefaultOptions()
	opt.Geometry = memsys.Geometry{Clusters: 2, ProcsPerCluster: 2}
	opt.Check = true
	f.Fuzz(func(t *testing.T, raw []byte) {
		dec := trace.NewReader(bytes.NewReader(raw))
		var decoded int64
		for {
			if _, ok := dec.Next(); !ok {
				break
			}
			decoded++
		}
		res, err := RunTrace(trace.NewReader(bytes.NewReader(raw)), "fuzz", 0, VB(1<<10), opt)
		switch {
		case err == nil:
			if dec.Err() != nil {
				t.Fatalf("decode error %v, but RunTrace succeeded", dec.Err())
			}
			if res.Refs != decoded {
				t.Fatalf("Refs = %d, decoder yielded %d", res.Refs, decoded)
			}
		case errors.Is(err, trace.ErrBadTrace), errors.Is(err, sim.ErrBadRef):
		default:
			t.Fatalf("RunTrace over %d decoded refs: %v", decoded, err)
		}
	})
}
