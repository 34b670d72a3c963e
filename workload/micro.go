package workload

import (
	"fmt"

	"dsmnc/memsys"
)

// Micro-workloads with analytically known behavior, used by unit and
// integration tests and as minimal examples.

// Sequential returns a workload where each processor streams
// read-then-write over its own private region of the given size,
// `passes` times. All traffic is local after first touch.
func Sequential(bytesPerProc int64, passes int) *Bench {
	b := &Bench{
		Name:   "seq",
		Params: fmt.Sprintf("%dB/proc x%d", bytesPerProc, passes),
	}
	b.run = func(e *Emitter) {
		P := e.Procs()
		var l layout
		base := make([]memsys.Addr, P)
		for p := 0; p < P; p++ {
			base[p] = l.region(bytesPerProc)
		}
		b.SharedBytes = l.used()
		for p := 0; p < P; p++ {
			e.WriteRange(p, base[p], bytesPerProc, memsys.PageBytes)
		}
		e.Barrier()
		for pass := 0; pass < passes; pass++ {
			for p := 0; p < P; p++ {
				e.ReadRange(p, base[p], bytesPerProc, 8)
				e.WriteRange(p, base[p], bytesPerProc, 64)
			}
			e.Barrier()
		}
	}
	return b
}

// RemoteStream returns a workload where every processor repeatedly
// streams a region owned by processor 0 (read-only): after the cold pass,
// refetches by other clusters are pure remote capacity misses when the
// region exceeds their caches.
func RemoteStream(bytes int64, passes int) *Bench {
	b := &Bench{
		Name:        "remotestream",
		Params:      fmt.Sprintf("%dB x%d", bytes, passes),
		SharedBytes: bytes,
	}
	b.run = func(e *Emitter) {
		P := e.Procs()
		var l layout
		base := l.region(bytes)
		b.SharedBytes = l.used()
		e.WriteRange(0, base, bytes, memsys.PageBytes)
		e.Barrier()
		for pass := 0; pass < passes; pass++ {
			for p := 0; p < P; p++ {
				e.ReadRange(p, base, bytes, 64)
			}
			e.Barrier()
		}
	}
	return b
}
