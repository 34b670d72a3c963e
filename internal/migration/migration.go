// Package migration implements OS-level page migration and replication,
// the SGI-Origin alternative to network caches that the paper contrasts
// in §1 and §7 ("the SGI Origin ... relies exclusively on page migration
// and replication"). The paper closes with the conjecture that "a small,
// very fast NC could shield the page migration and replication policies
// from the noise of conflict misses"; together with the simulator's NC
// organizations this package lets that conjecture be tested.
//
// The model follows the Origin's per-page reference counters: the home
// node counts remote misses per (page, cluster). When a cluster's count
// crosses a threshold the OS acts:
//
//   - a page that has seen remote writes migrates to the dominant writer
//     (re-homing it) — if a single cluster is responsible for the traffic;
//   - a read-only page is replicated: the cluster receives a local
//     read-only copy, and any later write collapses all replicas first
//     (TLB shootdown), exactly like the Origin's directory-backed
//     replication.
//
// Both actions carry the paper's 225-cycle OS overhead plus a whole-page
// copy over the network.
package migration

import (
	"dsmnc/memsys"
)

// Config tunes the policy.
type Config struct {
	// ReplicateThreshold is the remote-miss count at which a read-only
	// page is replicated to the missing cluster.
	ReplicateThreshold uint32
	// MigrateThreshold is the count at which a written page migrates to
	// the cluster generating the traffic.
	MigrateThreshold uint32
}

// DefaultConfig mirrors the relocation thresholds of the page-cache
// systems so migration and page caching are compared fairly.
func DefaultConfig() Config {
	return Config{ReplicateThreshold: 32, MigrateThreshold: 64}
}

// Action is what the policy decided for one remote miss.
type Action uint8

// Actions.
const (
	None Action = iota
	Replicate
	Migrate
)

type pageState struct {
	counts   map[int]uint32 // remote misses per cluster
	writers  uint64         // clusters that ever wrote the page
	replicas uint64         // clusters holding read-only copies
}

// Engine is the machine-wide migration/replication policy state,
// logically distributed to the home nodes.
type Engine struct {
	cfg   Config
	pages map[memsys.Page]*pageState

	migrations   int64
	replications int64
	replicaHits  int64
}

// NewEngine builds an engine with cfg.
func NewEngine(cfg Config) *Engine {
	if cfg.ReplicateThreshold == 0 {
		cfg.ReplicateThreshold = DefaultConfig().ReplicateThreshold
	}
	if cfg.MigrateThreshold == 0 {
		cfg.MigrateThreshold = DefaultConfig().MigrateThreshold
	}
	return &Engine{cfg: cfg, pages: make(map[memsys.Page]*pageState)}
}

func (e *Engine) stateOf(p memsys.Page) *pageState {
	st := e.pages[p]
	if st == nil {
		st = &pageState{counts: make(map[int]uint32)}
		e.pages[p] = st
	}
	return st
}

// HasReplica reports whether cluster c holds a read-only copy of p.
func (e *Engine) HasReplica(c int, p memsys.Page) bool {
	if st := e.pages[p]; st != nil {
		return st.replicas&(1<<uint(c)) != 0
	}
	return false
}

// RecordReplicaHit counts a read served from a local replica.
func (e *Engine) RecordReplicaHit() { e.replicaHits++ }

// OnRemoteMiss informs the policy of a remote miss on page p by cluster
// c (write=true for write fetches and upgrades). It returns the action
// the OS takes; the simulator applies it (re-homing, replica grant).
func (e *Engine) OnRemoteMiss(c int, p memsys.Page, write bool) Action {
	st := e.stateOf(p)
	if write {
		st.writers |= 1 << uint(c)
	}
	st.counts[c]++
	n := st.counts[c]
	if st.writers == 0 {
		if n >= e.cfg.ReplicateThreshold && !e.HasReplica(c, p) {
			st.replicas |= 1 << uint(c)
			st.counts[c] = 0
			e.replications++
			return Replicate
		}
		return None
	}
	// Written pages can only migrate, and only when one cluster
	// dominates: its count must exceed the threshold while every other
	// cluster stays below half of it.
	if n < e.cfg.MigrateThreshold || st.writers != 1<<uint(c) {
		return None
	}
	for oc, v := range st.counts {
		if oc != c && v > n/2 {
			return None
		}
	}
	st.counts = map[int]uint32{}
	e.migrations++
	return Migrate
}

// CollapseReplicas clears all replicas of p (a write is about to
// complete), returning the clusters whose copies must be shot down.
func (e *Engine) CollapseReplicas(p memsys.Page) []int {
	st := e.pages[p]
	if st == nil || st.replicas == 0 {
		return nil
	}
	var out []int
	for c := 0; st.replicas != 0 && c < 64; c++ {
		if st.replicas&(1<<uint(c)) != 0 {
			out = append(out, c)
			st.replicas &^= 1 << uint(c)
		}
	}
	return out
}

// Migrations returns the number of pages migrated.
func (e *Engine) Migrations() int64 { return e.migrations }

// Replications returns the number of replicas granted.
func (e *Engine) Replications() int64 { return e.replications }

// ReplicaHits returns the reads served from local replicas.
func (e *Engine) ReplicaHits() int64 { return e.replicaHits }
