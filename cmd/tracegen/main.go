// Command tracegen materializes benchmark traces in the binary on-disk
// format of package trace, and inspects existing trace files.
//
// Usage:
//
//	tracegen -bench Radix -scale small -o radix.trc
//	tracegen -inspect radix.trc
package main

import (
	"flag"
	"fmt"
	"os"

	"dsmnc/memsys"
	"dsmnc/trace"
	"dsmnc/workload"
)

func main() {
	var (
		bench   = flag.String("bench", "", "benchmark to generate")
		scale   = flag.String("scale", "small", "workload scale: test|small|medium|large")
		out     = flag.String("o", "", "output trace file")
		inspect = flag.String("inspect", "", "trace file to summarize")
		quantum = flag.Int("quantum", 4, "interleaving quantum")
	)
	flag.Parse()

	switch {
	case *inspect != "":
		if err := doInspect(*inspect); err != nil {
			fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
			os.Exit(1)
		}
	case *bench != "" && *out != "":
		if err := doGenerate(*bench, *scale, *out, *quantum); err != nil {
			fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func doGenerate(bench, scale, out string, quantum int) error {
	sc, err := workload.ParseScale(scale)
	if err != nil {
		return fmt.Errorf("unknown scale %q", scale)
	}
	b := workload.ByName(bench, sc)
	if b == nil {
		return fmt.Errorf("unknown benchmark %q", bench)
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()
	w := trace.NewWriter(f)
	var werr error
	b.Emit(memsys.DefaultGeometry(), quantum, func(r trace.Ref) {
		if werr == nil {
			werr = w.Write(r)
		}
	})
	if werr != nil {
		return werr
	}
	if err := w.Flush(); err != nil {
		return err
	}
	info, err := f.Stat()
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d references, %d bytes (%.2f B/ref)\n",
		out, w.Count(), info.Size(), float64(info.Size())/float64(w.Count()))
	return nil
}

func doInspect(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r := trace.NewReader(f)
	geo := memsys.DefaultGeometry()
	var reads, writes int64
	procs := map[int32]int64{}
	pageSharers := map[memsys.Page]uint64{} // cluster bitmap per page
	pageWriters := map[memsys.Page]uint64{}
	pageBlocks := map[memsys.Page]map[memsys.Block]bool{}
	for {
		ref, ok := r.Next()
		if !ok {
			break
		}
		if ref.Op == trace.Write {
			writes++
		} else {
			reads++
		}
		procs[ref.PID]++
		pg := memsys.PageOf(ref.Addr)
		c := geo.ClusterOf(int(ref.PID))
		pageSharers[pg] |= 1 << uint(c%64)
		if ref.Op == trace.Write {
			pageWriters[pg] |= 1 << uint(c%64)
		}
		m := pageBlocks[pg]
		if m == nil {
			m = make(map[memsys.Block]bool)
			pageBlocks[pg] = m
		}
		m[memsys.BlockOf(ref.Addr)] = true
	}
	if err := r.Err(); err != nil {
		return err
	}
	total := reads + writes
	fmt.Printf("%s: %d references (%.1f%% reads), %d processors, %d pages (%.2f MB footprint)\n",
		path, total, 100*float64(reads)/float64(total), len(procs), len(pageSharers),
		float64(len(pageSharers))*memsys.PageBytes/(1<<20))

	// Sharing-pattern histogram: how many clusters touch each page, and
	// the page classes that decide page-cache vs replication behaviour.
	sharerHist := map[int]int{}
	var private, readShared, writeShared int
	var blockSum int
	for pg, sharers := range pageSharers {
		n := popcount(sharers)
		sharerHist[n]++
		switch {
		case n == 1:
			private++
		case pageWriters[pg] == 0:
			readShared++
		default:
			writeShared++
		}
		blockSum += len(pageBlocks[pg])
	}
	fmt.Printf("page classes: %d cluster-private, %d read-shared, %d write-shared; mean %.1f/64 blocks touched per page\n",
		private, readShared, writeShared, float64(blockSum)/float64(len(pageSharers)))
	fmt.Print("sharers/page histogram:")
	for n := 1; n <= geo.Clusters; n++ {
		if sharerHist[n] > 0 {
			fmt.Printf(" %d:%d", n, sharerHist[n])
		}
	}
	fmt.Println()
	return nil
}

func popcount(x uint64) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}
