package main

import (
	"fmt"
	"math/rand/v2"

	"dsmnc"
	"dsmnc/serve"
	"dsmnc/workload"
)

// cell is one (benchmark, organization) point of the design space, in a
// form that renders both as a serve.Request and as the dsmnc.System the
// server compiles that request to, so a served result can be checked
// against an in-process run of the same cell.
type cell struct {
	Bench     string
	Kind      string // base, NCD, nc, vb, vp or vxp
	NCBytes   int
	Ways      int
	PCFrac    int // 0: no page cache (nc/vb/vp); required for vxp
	Threshold uint32
}

// Seed streams: each workload draws from its own stream of the run's
// seed, so serve-unique and fleet-hop never share cells by accident.
const (
	streamSweep uint64 = iota + 1
	streamUnique
	streamReplay
	streamFleet
	streamSample
)

func newRand(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

// Draw ranges of the organization space.
var (
	ncKBs     = []int{8, 16, 32, 64}
	wayCounts = []int{1, 2, 4, 8, 16}
	pcFracs   = []int{5, 7, 9}
	vxpThrs   = []uint32{8, 16, 32, 64}
)

func pick[T any](r *rand.Rand, xs []T) T { return xs[r.IntN(len(xs))] }

// drawOrg draws one organization of the given kind for bench.
func drawOrg(r *rand.Rand, bench, kind string) cell {
	c := cell{Bench: bench, Kind: kind}
	switch kind {
	case "base":
	case "NCD":
		c.NCBytes, c.Ways = 512<<10, pick(r, wayCounts)
	case "nc", "vb", "vp":
		c.NCBytes, c.Ways = pick(r, ncKBs)<<10, pick(r, wayCounts)
		if r.IntN(2) == 1 {
			c.PCFrac = pick(r, pcFracs)
		}
	case "vxp":
		c.NCBytes, c.Ways = pick(r, ncKBs)<<10, pick(r, wayCounts)
		c.PCFrac, c.Threshold = pick(r, pcFracs), pick(r, vxpThrs)
	}
	return c
}

// servedKinds are the organizations served cells draw from, weighted so
// that every NC-bearing kind is equally likely and base is rare (it has
// only one point per benchmark).
var servedKinds = []string{"nc", "vb", "vp", "vxp", "NCD", "nc", "vb", "vp", "vxp", "NCD", "base"}

// cellGen draws served cells from a seed: rounds of all eight
// benchmarks in a seeded order, each paired with a seeded organization,
// never repeating a cell. Balanced rounds keep the benchmark mix, and so
// the work per request, the same for every seed.
type cellGen struct {
	r     *rand.Rand
	round []string
	seen  map[cell]bool
}

func newCellGen(seed int64, stream uint64) *cellGen {
	return &cellGen{r: newRand(seed, stream), seen: map[cell]bool{}}
}

// next returns a cell not drawn before from this generator.
func (g *cellGen) next() cell {
	if len(g.round) == 0 {
		g.round = append([]string(nil), workload.Names()...)
		g.r.Shuffle(len(g.round), func(i, k int) { g.round[i], g.round[k] = g.round[k], g.round[i] })
	}
	bench := g.round[0]
	g.round = g.round[1:]
	for {
		c := drawOrg(g.r, bench, pick(g.r, servedKinds))
		if !g.seen[c] {
			g.seen[c] = true
			return c
		}
	}
}

// request renders the cell as a job request at the given scale.
func (c cell) request(scale string) serve.Request {
	return serve.Request{
		Bench: c.Bench, System: c.Kind, NCBytes: c.NCBytes, NCWays: c.Ways,
		PCFrac: c.PCFrac, Threshold: c.Threshold, Scale: scale,
	}
}

// system returns the organization the server compiles the cell's
// request to, built from the same dsmnc constructors.
func (c cell) system() dsmnc.System {
	var s dsmnc.System
	switch c.Kind {
	case "base":
		return dsmnc.Base()
	case "NCD":
		s = dsmnc.NCD()
		s.NCBytes = c.NCBytes
	case "nc":
		s = dsmnc.NC(c.NCBytes)
		if c.PCFrac > 0 {
			s = dsmnc.NCPFrac(c.NCBytes, c.PCFrac)
		}
	case "vb":
		s = dsmnc.VB(c.NCBytes)
		if c.PCFrac > 0 {
			s = dsmnc.VBPFrac(c.NCBytes, c.PCFrac)
		}
	case "vp":
		s = dsmnc.VP(c.NCBytes)
		if c.PCFrac > 0 {
			s = dsmnc.VPPFrac(c.NCBytes, c.PCFrac)
		}
	case "vxp":
		s = dsmnc.VXPFrac(c.NCBytes, c.PCFrac, c.Threshold)
	}
	s.NCWays = c.Ways
	return s
}

// goldenSystems are the five organizations of the committed golden
// corpus (testdata/golden), with the names its files use.
func goldenSystems() []dsmnc.System {
	return []dsmnc.System{
		dsmnc.Base(),
		dsmnc.NC(16 << 10),
		dsmnc.VB(16 << 10),
		dsmnc.VP(16 << 10),
		dsmnc.VXPFrac(16<<10, 5, 32),
	}
}

// goldenFile maps a golden system name to its corpus file prefix.
func goldenFile(system string) string {
	if system == "vxp5(t32)" {
		return "vxp5-t32"
	}
	return system
}

// sweepSystems returns the organizations of a run's i-th sweep: the
// five golden ones, then one seed-drawn NCD, one page-cache
// organization (ncp/vbp/vpp) and one vxp. Each sweep of a run draws
// afresh, so a run averages over several drawn sets. The drawn ones are
// renamed to carry their size and ways, so no two columns of a sweep
// share a journal key.
func sweepSystems(seed int64, i int) []dsmnc.System {
	r := newRand(seed, streamSweep<<32|uint64(i))
	pc := drawOrg(r, "", pick(r, []string{"nc", "vb", "vp"}))
	if pc.PCFrac == 0 {
		pc.PCFrac = pick(r, pcFracs)
	}
	drawn := []cell{drawOrg(r, "", "NCD"), pc, drawOrg(r, "", "vxp")}
	out := goldenSystems()
	for _, c := range drawn {
		s := c.system()
		s.Name = fmt.Sprintf("%s-%dK-%dw", s.Name, c.NCBytes>>10, c.Ways)
		out = append(out, s)
	}
	return out
}
