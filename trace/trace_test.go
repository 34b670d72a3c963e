package trace

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"dsmnc/memsys"
)

func mkRefs(pid int32, addrs ...uint64) []Ref {
	out := make([]Ref, len(addrs))
	for i, a := range addrs {
		op := Read
		if i%3 == 2 {
			op = Write
		}
		out[i] = Ref{PID: pid, Op: op, Addr: memsys.Addr(a)}
	}
	return out
}

// Concat chains sources back to back.
func Concat(srcs ...Source) Source {
	i := 0
	return FuncSource(func() (Ref, bool) {
		for i < len(srcs) {
			if r, ok := srcs[i].Next(); ok {
				return r, true
			}
			i++
		}
		return Ref{}, false
	})
}

// Limit truncates src after n references.
func Limit(src Source, n int64) Source {
	return FuncSource(func() (Ref, bool) {
		if n <= 0 {
			return Ref{}, false
		}
		n--
		return src.Next()
	})
}

// Filter yields only references for which keep returns true.
func Filter(src Source, keep func(Ref) bool) Source {
	return FuncSource(func() (Ref, bool) {
		for {
			r, ok := src.Next()
			if !ok {
				return Ref{}, false
			}
			if keep(r) {
				return r, true
			}
		}
	})
}

// Collect materializes up to max references from src (max <= 0 means all).
func Collect(src Source, max int64) []Ref {
	var out []Ref
	for max <= 0 || int64(len(out)) < max {
		r, ok := src.Next()
		if !ok {
			break
		}
		out = append(out, r)
	}
	return out
}

func TestSliceSource(t *testing.T) {
	refs := mkRefs(1, 0, 64, 128)
	s := NewSliceSource(refs)
	for i := range refs {
		r, ok := s.Next()
		if !ok || r != refs[i] {
			t.Fatalf("ref %d: got (%v,%v), want %v", i, r, ok, refs[i])
		}
	}
	if _, ok := s.Next(); ok {
		t.Fatal("exhausted source yielded a ref")
	}
	if _, ok := s.Next(); ok {
		t.Fatal("source resurrected after exhaustion")
	}
	if s.Remaining() != 0 {
		t.Fatalf("Remaining = %d, want 0", s.Remaining())
	}
}

func TestConcatLimitFilter(t *testing.T) {
	a := NewSliceSource(mkRefs(0, 1, 2))
	b := NewSliceSource(mkRefs(1, 3, 4, 5))
	got := Collect(Concat(a, b), -1)
	if len(got) != 5 {
		t.Fatalf("Concat yielded %d refs, want 5", len(got))
	}
	lim := Limit(NewSliceSource(mkRefs(0, 1, 2, 3, 4)), 2)
	if n := len(Collect(lim, -1)); n != 2 {
		t.Fatalf("Limit yielded %d, want 2", n)
	}
	f := Filter(NewSliceSource(mkRefs(0, 1, 2, 3, 4, 5, 6)), func(r Ref) bool {
		return r.Op == Write
	})
	for _, r := range Collect(f, -1) {
		if r.Op != Write {
			t.Fatalf("filter leaked %v", r)
		}
	}
}

func TestCounting(t *testing.T) {
	refs := []Ref{
		{PID: 0, Op: Read, Addr: 0},
		{PID: 0, Op: Write, Addr: 64},
		{PID: 0, Op: Read, Addr: 128},
	}
	c := &Counting{Src: NewSliceSource(refs)}
	Drain(c, func(Ref) {})
	if c.Reads != 2 || c.Writes != 1 || c.Total() != 3 {
		t.Fatalf("counts = %d/%d, want 2/1", c.Reads, c.Writes)
	}
}

func TestInterleaverOrderAndConservation(t *testing.T) {
	perProc := [][]Ref{
		mkRefs(0, 10, 11, 12, 13, 14),
		mkRefs(1, 20, 21),
		mkRefs(2, 30, 31, 32, 33, 34, 35, 36),
	}
	srcs := make([]Source, len(perProc))
	for i, rs := range perProc {
		srcs[i] = NewSliceSource(rs)
	}
	il := NewInterleaver(srcs, 2)
	var got []Ref
	perPID := map[int32][]Ref{}
	for {
		r, ok := il.Next()
		if !ok {
			break
		}
		got = append(got, r)
		perPID[r.PID] = append(perPID[r.PID], r)
	}
	want := 0
	for _, rs := range perProc {
		want += len(rs)
	}
	if len(got) != want {
		t.Fatalf("interleaver yielded %d refs, want %d", len(got), want)
	}
	// Per-processor program order must be preserved exactly.
	for pid, rs := range perProc {
		if !reflect.DeepEqual(perPID[int32(pid)], rs) {
			t.Fatalf("pid %d order broken:\n got %v\nwant %v", pid, perPID[int32(pid)], rs)
		}
	}
	// The first four refs with quantum 2 must be P0,P0,P1,P1.
	wantStart := []int32{0, 0, 1, 1, 2, 2}
	for i, w := range wantStart {
		if got[i].PID != w {
			t.Fatalf("ref %d from P%d, want P%d (quantum round-robin)", i, got[i].PID, w)
		}
	}
}

func TestInterleaverQuantumFloor(t *testing.T) {
	il := NewInterleaver([]Source{NewSliceSource(mkRefs(0, 1, 2, 3))}, 0)
	if n := len(Collect(il, -1)); n != 3 {
		t.Fatalf("got %d refs, want 3", n)
	}
}

func TestInterleaverProperty(t *testing.T) {
	// For random per-proc stream lengths, the interleaver conserves
	// references and preserves per-processor order.
	f := func(lens []uint8, quantum uint8) bool {
		if len(lens) == 0 {
			return true
		}
		if len(lens) > 8 {
			lens = lens[:8]
		}
		rng := rand.New(rand.NewSource(42))
		srcs := make([]Source, len(lens))
		orig := make([][]Ref, len(lens))
		total := 0
		for i, l := range lens {
			n := int(l % 50)
			rs := make([]Ref, n)
			for j := range rs {
				rs[j] = Ref{PID: int32(i), Op: Op(rng.Intn(2)), Addr: memsys.Addr(rng.Uint64())}
			}
			orig[i] = rs
			srcs[i] = NewSliceSource(rs)
			total += n
		}
		il := NewInterleaver(srcs, int(quantum%7))
		perPID := make([][]Ref, len(lens))
		n := 0
		for {
			r, ok := il.Next()
			if !ok {
				break
			}
			perPID[r.PID] = append(perPID[r.PID], r)
			n++
		}
		if n != total {
			return false
		}
		for i := range orig {
			if len(orig[i]) == 0 && len(perPID[i]) == 0 {
				continue
			}
			if !reflect.DeepEqual(orig[i], perPID[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	refs := make([]Ref, 5000)
	addr := uint64(1 << 20)
	for i := range refs {
		// Mix of sequential and jumpy addresses to exercise deltas.
		switch rng.Intn(4) {
		case 0:
			addr += 8
		case 1:
			addr += 64
		case 2:
			addr -= 128
		default:
			addr = rng.Uint64() >> 16
		}
		refs[i] = Ref{PID: int32(rng.Intn(32)), Op: Op(rng.Intn(2)), Addr: memsys.Addr(addr)}
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, r := range refs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != int64(len(refs)) {
		t.Fatalf("Count = %d, want %d", w.Count(), len(refs))
	}
	r := NewReader(&buf)
	got := Collect(r, -1)
	if r.Err() != nil {
		t.Fatalf("reader error: %v", r.Err())
	}
	if !reflect.DeepEqual(got, refs) {
		t.Fatalf("round trip mismatch: got %d refs, want %d", len(got), len(refs))
	}
}

func TestCodecEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	if _, ok := r.Next(); ok {
		t.Fatal("empty trace yielded a ref")
	}
	if r.Err() != nil {
		t.Fatalf("empty trace reported error: %v", r.Err())
	}
}

func TestCodecRejectsGarbage(t *testing.T) {
	r := NewReader(bytes.NewBufferString("not a trace at all"))
	if _, ok := r.Next(); ok {
		t.Fatal("garbage accepted")
	}
	if r.Err() == nil {
		t.Fatal("garbage produced no error")
	}
}

func TestCodecRejectsTruncation(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := 0; i < 100; i++ {
		if err := w.Write(Ref{PID: 3, Op: Write, Addr: memsys.Addr(i * 4096)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	trunc := full[:len(full)-1]
	r := NewReader(bytes.NewReader(trunc))
	for {
		if _, ok := r.Next(); !ok {
			break
		}
	}
	if r.Err() == nil {
		t.Fatal("truncated trace read cleanly")
	}
}

func TestCodecPropertyRoundTrip(t *testing.T) {
	f := func(pids []uint8, addrs []uint64, ops []bool) bool {
		n := len(pids)
		if len(addrs) < n {
			n = len(addrs)
		}
		if len(ops) < n {
			n = len(ops)
		}
		refs := make([]Ref, n)
		for i := 0; i < n; i++ {
			op := Read
			if ops[i] {
				op = Write
			}
			// The reader bounds addresses by memsys.MaxAddr; only
			// architecturally valid addresses round-trip.
			refs[i] = Ref{PID: int32(pids[i]), Op: op, Addr: memsys.Addr(addrs[i]) & memsys.MaxAddr}
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for _, r := range refs {
			if err := w.Write(r); err != nil {
				return false
			}
		}
		if err := w.Flush(); err != nil {
			return false
		}
		rd := NewReader(&buf)
		got := Collect(rd, -1)
		if rd.Err() != nil {
			return false
		}
		if len(got) != len(refs) {
			return false
		}
		for i := range refs {
			if got[i] != refs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCollectLimits(t *testing.T) {
	src := NewSliceSource(mkRefs(0, 1, 2, 3, 4, 5))
	if got := Collect(src, 2); len(got) != 2 {
		t.Fatalf("Collect(2) = %d refs", len(got))
	}
	if got := Collect(src, -1); len(got) != 3 {
		t.Fatalf("Collect(rest) = %d refs", len(got))
	}
}

func TestFuncSourceAndDrain(t *testing.T) {
	n := 3
	src := FuncSource(func() (Ref, bool) {
		if n == 0 {
			return Ref{}, false
		}
		n--
		return Ref{PID: int32(n)}, true
	})
	var seen int64
	if got := Drain(src, func(Ref) { seen++ }); got != 3 || seen != 3 {
		t.Fatalf("Drain = %d, saw %d", got, seen)
	}
}

func TestStringers(t *testing.T) {
	if Read.String() != "R" || Write.String() != "W" {
		t.Fatal("Op.String")
	}
	r := Ref{PID: 3, Op: Write, Addr: 0x1000}
	if r.String() != "P3 W 0x1000" {
		t.Fatalf("Ref.String = %q", r.String())
	}
}

// --- Reader hardening: adversarial input must yield ErrBadTrace with a
// byte offset, never a panic or silent garbage. ---

// encode produces a valid binary trace of the given refs.
func encode(t *testing.T, refs []Ref) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, r := range refs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func wantBadTrace(t *testing.T, r *Reader) {
	t.Helper()
	for {
		if _, ok := r.Next(); !ok {
			break
		}
	}
	if !errors.Is(r.Err(), ErrBadTrace) {
		t.Fatalf("Err() = %v, want ErrBadTrace", r.Err())
	}
	if !strings.Contains(r.Err().Error(), "offset") {
		t.Fatalf("error %q names no byte offset", r.Err())
	}
}

func TestReaderRejectsBadMagic(t *testing.T) {
	wantBadTrace(t, NewReader(bytes.NewReader([]byte("XSMT\x01rest"))))
}

func TestReaderRejectsBadVersion(t *testing.T) {
	wantBadTrace(t, NewReader(bytes.NewReader([]byte("DSMT\x7f"))))
}

func TestReaderRejectsOutOfRangePID(t *testing.T) {
	raw := encode(t, mkRefs(9, 0, 64, 128))
	r := NewReader(bytes.NewReader(raw))
	r.SetLimits(4, 0) // a 4-processor machine; pid 9 is impossible
	wantBadTrace(t, r)
}

func TestReaderRejectsOutOfRangeAddr(t *testing.T) {
	raw := encode(t, mkRefs(0, 1<<20))
	r := NewReader(bytes.NewReader(raw))
	r.SetLimits(0, 1<<16)
	wantBadTrace(t, r)
}

func TestReaderRejectsAddrBeyondAddressSpace(t *testing.T) {
	// Even with no explicit limits, addresses beyond the architected
	// space are rejected (the writer will happily encode them).
	raw := encode(t, []Ref{{PID: 0, Op: Read, Addr: memsys.MaxAddr + 1}})
	wantBadTrace(t, NewReader(bytes.NewReader(raw)))
}

func TestReaderRejectsOverflowingHead(t *testing.T) {
	// A record head wider than 32 bits cannot hold a valid pid<<1|op.
	raw := append([]byte("DSMT\x01"), 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f)
	wantBadTrace(t, NewReader(bytes.NewReader(raw)))
}

func TestReaderOffsetNamesDamage(t *testing.T) {
	raw := encode(t, mkRefs(1, 0, 64, 128, 192))
	cut := raw[:len(raw)-1]
	r := NewReader(bytes.NewReader(cut))
	n := 0
	for {
		if _, ok := r.Next(); !ok {
			break
		}
		n++
	}
	if n == 0 {
		t.Fatal("no refs decoded before the damage")
	}
	if !errors.Is(r.Err(), ErrBadTrace) {
		t.Fatalf("Err() = %v", r.Err())
	}
	if r.Offset() != int64(len(cut)) {
		t.Fatalf("Offset() = %d, want %d (all bytes consumed)", r.Offset(), len(cut))
	}
}

func TestReaderStaysDeadAfterError(t *testing.T) {
	r := NewReader(bytes.NewReader([]byte("garbage")))
	if _, ok := r.Next(); ok {
		t.Fatal("garbage decoded")
	}
	first := r.Err()
	if _, ok := r.Next(); ok {
		t.Fatal("reader resurrected")
	}
	if r.Err() != first {
		t.Fatal("error changed on re-poll")
	}
}
