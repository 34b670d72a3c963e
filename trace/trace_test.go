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
