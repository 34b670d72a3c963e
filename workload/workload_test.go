package workload

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"dsmnc/memsys"
	"dsmnc/trace"
)

var testGeo = memsys.Geometry{Clusters: 8, ProcsPerCluster: 4}

// collect is an Emitter sink that appends every delivered reference.
func collect(out *[]trace.Ref) func([]trace.Ref) {
	return func(refs []trace.Ref) { *out = append(*out, refs...) }
}

func TestEmitterInterleaving(t *testing.T) {
	var got []trace.Ref
	e := NewEmitter(2, 1, collect(&got))
	e.Read(0, 0)
	e.Read(0, 64)
	e.Write(1, 128)
	e.Barrier()
	if len(got) != 3 {
		t.Fatalf("emitted %d refs", len(got))
	}
	// Round-robin with quantum 1: P0, P1, P0.
	wantPIDs := []int32{0, 1, 0}
	for i, w := range wantPIDs {
		if got[i].PID != w {
			t.Fatalf("ref %d from P%d, want P%d", i, got[i].PID, w)
		}
	}
	if e.Emitted() != 3 {
		t.Fatalf("Emitted = %d", e.Emitted())
	}
}

func TestEmitterAutoFlush(t *testing.T) {
	var n int
	e := NewEmitter(2, 1, func(refs []trace.Ref) { n += len(refs) })
	e.flushAt = 10
	for i := 0; i < 25; i++ {
		e.Read(0, memsys.Addr(i*64))
	}
	if n < 20 {
		t.Fatalf("auto-flush did not run: %d delivered", n)
	}
	e.Barrier()
	if n != 25 {
		t.Fatalf("total = %d, want 25", n)
	}
}

func TestEmitterRanges(t *testing.T) {
	var got []trace.Ref
	e := NewEmitter(1, 1, collect(&got))
	e.ReadRange(0, 0, 64, 8)
	e.WriteRange(0, 1024, 128, 64)
	e.Barrier()
	if len(got) != 8+2 {
		t.Fatalf("ranges emitted %d refs, want 10", len(got))
	}
	if got[8].Op != trace.Write || got[8].Addr != 1024 {
		t.Fatalf("write range wrong: %v", got[8])
	}
}

// TestEmitterInterleaveProperty: for random per-processor stream
// lengths and quanta 0-6 (0 floors to 1), with a flush threshold low
// enough that auto-flushes split phases, the emitter loses and adds no
// reference, preserves each processor's program order, and hands the
// sink whole processor turns of at most one quantum.
func TestEmitterInterleaveProperty(t *testing.T) {
	f := func(lens []uint8, quantum uint8, flushAt uint8) bool {
		if len(lens) > 8 {
			lens = lens[:8]
		}
		q := int(quantum % 7)
		var got []trace.Ref
		ok := true
		e := NewEmitter(len(lens), q, func(refs []trace.Ref) {
			if len(refs) == 0 || len(refs) > max(q, 1) {
				ok = false
			}
			for _, r := range refs[1:] {
				if r.PID != refs[0].PID {
					ok = false
				}
			}
			got = append(got, refs...)
		})
		e.flushAt = int(flushAt%40) + 1
		rng := rand.New(rand.NewSource(42))
		orig := make([][]trace.Ref, len(lens))
		for i, l := range lens {
			for j := 0; j < int(l%50); j++ {
				r := trace.Ref{PID: int32(i), Op: trace.Op(rng.Intn(2)), Addr: memsys.Addr(rng.Uint64())}
				orig[i] = append(orig[i], r)
			}
		}
		// Feed the streams in random slices, as a generator's phases do.
		pos := make([]int, len(lens))
		for left := true; left; {
			left = false
			for i := range orig {
				n := min(rng.Intn(5), len(orig[i])-pos[i])
				for _, r := range orig[i][pos[i] : pos[i]+n] {
					if r.Op == trace.Write {
						e.Write(i, r.Addr)
					} else {
						e.Read(i, r.Addr)
					}
				}
				pos[i] += n
				left = left || pos[i] < len(orig[i])
			}
		}
		e.Barrier()
		perPID := make([][]trace.Ref, len(lens))
		for _, r := range got {
			perPID[r.PID] = append(perPID[r.PID], r)
		}
		for i := range orig {
			if !slices.Equal(orig[i], perPID[i]) {
				return false
			}
		}
		return ok && e.Emitted() == int64(len(got))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLayout(t *testing.T) {
	var l layout
	a := l.region(1)
	b := l.region(memsys.PageBytes + 1)
	c := l.region(100)
	if a != 0 || b != memsys.PageBytes || c != 3*memsys.PageBytes {
		t.Fatalf("regions at %d,%d,%d", a, b, c)
	}
	if l.used() != 4*memsys.PageBytes {
		t.Fatalf("used = %d", l.used())
	}
}

func TestRNGDeterministic(t *testing.T) {
	a, b := newRNG(7), newRNG(7)
	for i := 0; i < 100; i++ {
		if a.next() != b.next() {
			t.Fatal("rng not deterministic")
		}
	}
	if newRNG(0).next() == 0 {
		t.Fatal("zero seed not remapped")
	}
	r := newRNG(3)
	for i := 0; i < 1000; i++ {
		if v := r.intn(10); v < 0 || v >= 10 {
			t.Fatalf("intn out of range: %d", v)
		}
	}
	if newRNG(1).intn(0) != 0 {
		t.Fatal("intn(0) != 0")
	}
}

func TestAllBenchmarksGenerate(t *testing.T) {
	for _, b := range All(ScaleTest) {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			var reads, writes int64
			procs := map[int32]bool{}
			pages := map[memsys.Page]bool{}
			b.Emit(testGeo, 4, func(r trace.Ref) {
				if r.Op == trace.Write {
					writes++
				} else {
					reads++
				}
				procs[r.PID] = true
				pages[memsys.PageOf(r.Addr)] = true
			})
			total := reads + writes
			if total < 10_000 {
				t.Fatalf("only %d refs at test scale", total)
			}
			if total > 20_000_000 {
				t.Fatalf("%d refs at test scale is too many", total)
			}
			if len(procs) != testGeo.Procs() {
				t.Fatalf("only %d/%d processors emitted refs", len(procs), testGeo.Procs())
			}
			if writes == 0 || reads == 0 {
				t.Fatalf("degenerate mix: %d reads, %d writes", reads, writes)
			}
			// The address footprint must be within the declared region.
			if int64(len(pages))*memsys.PageBytes > b.SharedBytes {
				t.Fatalf("touched %d pages > declared %d bytes", len(pages), b.SharedBytes)
			}
			if b.SharedBytes == 0 || b.PaperMB == 0 || b.Params == "" {
				t.Fatal("metadata missing")
			}
		})
	}
}

func TestBenchmarksDeterministic(t *testing.T) {
	for _, name := range []string{"FFT", "Radix", "Barnes"} {
		run := func() []trace.Ref {
			var out []trace.Ref
			ByName(name, ScaleTest).Emit(testGeo, 4, func(r trace.Ref) { out = append(out, r) })
			return out
		}
		a, b := run(), run()
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s not deterministic", name)
		}
	}
}

func TestByNameAndNames(t *testing.T) {
	if ByName("nosuch", ScaleTest) != nil {
		t.Fatal("ByName invented a benchmark")
	}
	names := Names()
	if len(names) != 8 {
		t.Fatalf("Names = %v", names)
	}
	for _, n := range names {
		if ByName(n, ScaleTest) == nil {
			t.Fatalf("ByName(%q) = nil", n)
		}
	}
	all := All(ScaleTest)
	if len(all) != 8 {
		t.Fatal("All != 8 benchmarks")
	}
}

func TestScaleString(t *testing.T) {
	for s, want := range map[Scale]string{
		ScaleTest: "test", ScaleSmall: "small", ScaleMedium: "medium", ScaleLarge: "large",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q", s, s.String())
		}
	}
	if Scale(99).String() == "" {
		t.Error("unknown scale empty")
	}
}

// TestParseScale: ParseScale inverts Scale.String for every scale and
// rejects any other name.
func TestParseScale(t *testing.T) {
	for _, tc := range []struct {
		name string
		want Scale
		ok   bool
	}{
		{"test", ScaleTest, true},
		{"small", ScaleSmall, true},
		{"medium", ScaleMedium, true},
		{"large", ScaleLarge, true},
		{"huge", 0, false},
		{"", 0, false},
		{"Scale(4)", 0, false},
	} {
		got, err := ParseScale(tc.name)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseScale(%q) = %v, %v; want %v, ok=%v", tc.name, got, err, tc.want, tc.ok)
		}
		if tc.ok && got.String() != tc.name {
			t.Errorf("ParseScale(%q).String() = %q, not a round trip", tc.name, got.String())
		}
	}
}

func TestScalesGrow(t *testing.T) {
	for _, name := range Names() {
		small := ByName(name, ScaleTest).SharedBytes
		big := ByName(name, ScaleLarge).SharedBytes
		if big <= small {
			t.Errorf("%s: large (%d) not bigger than test (%d)", name, big, small)
		}
	}
}

// TestBenchSource: a bench's reference stream is the same whether it
// is taken one reference at a time (Emit) or one processor turn at a
// time (EmitBatch).
func TestBenchSource(t *testing.T) {
	g := memsys.Geometry{Clusters: 2, ProcsPerCluster: 2}
	b := ByName("FFT", ScaleTest)
	var one, batched []trace.Ref
	b.Emit(g, 3, func(r trace.Ref) { one = append(one, r) })
	b.EmitBatch(g, 3, collect(&batched))
	if len(one) == 0 {
		t.Fatal("Emit yielded nothing")
	}
	if !reflect.DeepEqual(one, batched) {
		t.Fatalf("Emit and EmitBatch disagree: %d vs %d refs", len(one), len(batched))
	}
}

func TestMicroWorkloads(t *testing.T) {
	g := memsys.Geometry{Clusters: 2, ProcsPerCluster: 2}
	for _, b := range []*Bench{
		Sequential(2048, 2),
		RemoteStream(4096, 2),
	} {
		n := 0
		b.Emit(g, 1, func(trace.Ref) { n++ })
		if n == 0 {
			t.Errorf("%s emitted nothing", b.Name)
		}
	}
}

// Per-processor program order must survive interleaving in a real
// benchmark generation.
func TestPerProcOrderPreserved(t *testing.T) {
	b := ByName("LU", ScaleTest)
	var byProc [2][]trace.Ref
	collect := func(quantum int) {
		for i := range byProc {
			byProc[i] = nil
		}
		b.Emit(testGeo, quantum, func(r trace.Ref) {
			if r.PID < 2 {
				byProc[r.PID] = append(byProc[r.PID], r)
			}
		})
	}
	collect(1)
	p0q1 := append([]trace.Ref(nil), byProc[0]...)
	collect(8)
	if !reflect.DeepEqual(p0q1, byProc[0]) {
		t.Fatal("P0 program order depends on interleaving quantum")
	}
}
