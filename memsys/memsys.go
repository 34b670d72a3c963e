// Package memsys defines the address geometry of the simulated machine:
// byte addresses, cache blocks, virtual-memory pages, the cluster/processor
// topology, and the first-touch page placement map that assigns every page
// a home cluster.
//
// All other packages express addresses in terms of memsys.Addr (a byte
// address), memsys.Block (a global block number) and memsys.Page (a global
// page number). The paper's geometry is fixed at 64-byte blocks and 4 KB
// pages; both are constants here because the SPLASH-2 study never varies
// them and fixed shifts keep the simulator hot path branch-free.
package memsys

import (
	"fmt"

	"dsmnc/internal/flatmap"
)

// Address geometry constants (paper §5.1: 64-byte blocks, 4 KB pages).
const (
	BlockShift    = 6               // log2 of the block size
	BlockBytes    = 1 << BlockShift // bytes per cache block
	PageShift     = 12              // log2 of the page size
	PageBytes     = 1 << PageShift  // bytes per page
	BlocksPerPage = PageBytes / BlockBytes
)

// Address-space bounds. The simulated machine exposes a 48-bit physical
// address space (the width contemporary CC-NUMA machines implement);
// addresses beyond MaxAddr cannot name real memory and are rejected at
// the simulator boundary instead of silently aliasing.
const (
	AddrSpaceBits      = 48
	MaxAddr       Addr = 1<<AddrSpaceBits - 1
)

// Addr is a byte address in the single shared address space.
type Addr uint64

// Block is a global cache-block number (Addr >> BlockShift).
type Block uint64

// Page is a global page number (Addr >> PageShift).
type Page uint64

// BlockOf returns the block containing a.
func BlockOf(a Addr) Block { return Block(a >> BlockShift) }

// PageOf returns the page containing a.
func PageOf(a Addr) Page { return Page(a >> PageShift) }

// PageOfBlock returns the page containing block b.
func PageOfBlock(b Block) Page { return Page(b >> (PageShift - BlockShift)) }

// BlockInPage returns the index of block b within its page (0..63).
func BlockInPage(b Block) int { return int(b) & (BlocksPerPage - 1) }

// FirstBlock returns the first block of page p.
func FirstBlock(p Page) Block { return Block(p) << (PageShift - BlockShift) }

// Base returns the first byte address of block b.
func (b Block) Base() Addr { return Addr(b) << BlockShift }

// Base returns the first byte address of page p.
func (p Page) Base() Addr { return Addr(p) << PageShift }

// FrameOf returns the pseudo-physical page frame backing virtual page p.
// Caches in real DSM nodes are physically indexed, and the OS hands out
// frames with effectively random colors; hashing the page number
// reproduces that and keeps power-of-two data-structure strides (Radix's
// bucket regions, FFT's matrix rows) from aliasing whole arrays into a
// single cache set. The hash is a fixed multiplicative mix, so runs stay
// deterministic.
func FrameOf(p Page) uint64 {
	return (uint64(p) * 0x9e3779b97f4a7c15) >> 16
}

// PhysBlock returns the pseudo-physical block number of b: the frame of
// its page concatenated with its block offset. Cache set indexing uses
// this, preserving intra-page spatial contiguity while randomizing page
// color.
func PhysBlock(b Block) uint64 {
	return FrameOf(PageOfBlock(b))<<(PageShift-BlockShift) | uint64(BlockInPage(b))
}

// Geometry describes the machine topology: Clusters bus-based SMP nodes
// with ProcsPerCluster processors each. The paper evaluates 8 clusters of
// 4 processors (32 processors total).
type Geometry struct {
	Clusters        int
	ProcsPerCluster int
}

// DefaultGeometry is the paper's 8x4 configuration.
func DefaultGeometry() Geometry { return Geometry{Clusters: 8, ProcsPerCluster: 4} }

// Procs returns the total processor count.
func (g Geometry) Procs() int { return g.Clusters * g.ProcsPerCluster }

// ClusterOf returns the cluster that processor pid belongs to.
func (g Geometry) ClusterOf(pid int) int { return pid / g.ProcsPerCluster }

// LocalProc returns pid's index within its cluster.
func (g Geometry) LocalProc(pid int) int { return pid % g.ProcsPerCluster }

// Validate reports whether the geometry is usable.
func (g Geometry) Validate() error {
	if g.Clusters <= 0 || g.ProcsPerCluster <= 0 {
		return fmt.Errorf("memsys: invalid geometry %dx%d", g.Clusters, g.ProcsPerCluster)
	}
	return nil
}

// FirstTouch places each page on the cluster whose processor touches it
// first (paper §5.2, Marchetti et al. [17]). The SPLASH-2 programs are
// written so that first-touch is near-optimal.
//
// Placement is consulted on every applied reference, so the page→home
// assignment lives in an open-addressed table with a one-entry memo in
// front of it: consecutive references usually stay on one page, and the
// memo turns that run into a single compare.
type FirstTouch struct {
	home flatmap.Map[int32]

	lastPage Page
	lastHome int32
	hasLast  bool
}

// NewFirstTouch returns an empty first-touch placement map.
func NewFirstTouch() *FirstTouch { return &FirstTouch{} }

// Home returns (and on first use assigns) the home cluster of p.
func (ft *FirstTouch) Home(p Page, requester int) int {
	if ft.hasLast && p == ft.lastPage {
		return int(ft.lastHome)
	}
	h, created := ft.home.Put(uint64(p))
	if created {
		*h = int32(requester)
	}
	ft.lastPage, ft.lastHome, ft.hasLast = p, *h, true
	return int(*h)
}

// HomeIfPlaced returns the home of p if it has been assigned.
func (ft *FirstTouch) HomeIfPlaced(p Page) (int, bool) {
	if ft.hasLast && p == ft.lastPage {
		return int(ft.lastHome), true
	}
	if h := ft.home.Get(uint64(p)); h != nil {
		return int(*h), true
	}
	return 0, false
}

// Rehome migrates page p to cluster c (OS page migration).
func (ft *FirstTouch) Rehome(p Page, c int) {
	h, _ := ft.home.Put(uint64(p))
	*h = int32(c)
	if ft.hasLast && ft.lastPage == p {
		ft.lastHome = int32(c)
	}
}
