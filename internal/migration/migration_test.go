package migration

import "testing"

func TestDefaultsApplied(t *testing.T) {
	e := NewEngine(Config{})
	if e.cfg.ReplicateThreshold != 32 || e.cfg.MigrateThreshold != 64 {
		t.Fatalf("defaults not applied: %+v", e.cfg)
	}
}

func TestReplicationOfReadOnlyPage(t *testing.T) {
	e := NewEngine(Config{ReplicateThreshold: 3, MigrateThreshold: 100})
	if e.HasReplica(1, 7) {
		t.Fatal("phantom replica")
	}
	for i := 0; i < 2; i++ {
		if a := e.OnRemoteMiss(1, 7, false); a != None {
			t.Fatalf("miss %d: action %v", i, a)
		}
	}
	if a := e.OnRemoteMiss(1, 7, false); a != Replicate {
		t.Fatalf("third miss: %v, want Replicate", a)
	}
	if !e.HasReplica(1, 7) {
		t.Fatal("replica not granted")
	}
	if e.Replications() != 1 {
		t.Fatal("replication not counted")
	}
	// Already replicated: no second grant.
	for i := 0; i < 5; i++ {
		if a := e.OnRemoteMiss(1, 7, false); a == Replicate {
			t.Fatal("double replication")
		}
	}
	// An independent cluster earns its own replica.
	for i := 0; i < 3; i++ {
		e.OnRemoteMiss(2, 7, false)
	}
	if !e.HasReplica(2, 7) {
		t.Fatal("second cluster not replicated")
	}
}

func TestWritesBlockReplication(t *testing.T) {
	e := NewEngine(Config{ReplicateThreshold: 2, MigrateThreshold: 100})
	e.OnRemoteMiss(1, 3, true) // remote write: page is not read-only
	for i := 0; i < 10; i++ {
		if a := e.OnRemoteMiss(1, 3, false); a == Replicate {
			t.Fatal("replicated a written page")
		}
	}
}

func TestMigrationOfDominantWriter(t *testing.T) {
	e := NewEngine(Config{ReplicateThreshold: 100, MigrateThreshold: 4})
	var act Action
	for i := 0; i < 4; i++ {
		act = e.OnRemoteMiss(2, 9, true)
	}
	if act != Migrate {
		t.Fatalf("action = %v, want Migrate", act)
	}
	if e.Migrations() != 1 {
		t.Fatal("migration not counted")
	}
	// Counts reset after the move: the next miss starts over.
	if a := e.OnRemoteMiss(2, 9, true); a != None {
		t.Fatalf("post-migration action %v", a)
	}
}

func TestNoMigrationWithCompetingTraffic(t *testing.T) {
	e := NewEngine(Config{ReplicateThreshold: 100, MigrateThreshold: 4})
	// Cluster 3 keeps pace with cluster 2: neither ever dominates 2:1,
	// so the page must stay put.
	for i := 0; i < 10; i++ {
		if a := e.OnRemoteMiss(3, 9, false); a == Migrate {
			t.Fatal("reader migrated the page")
		}
		if a := e.OnRemoteMiss(2, 9, true); a == Migrate {
			t.Fatal("migrated despite competing traffic")
		}
	}
}

func TestNoMigrationWithMultipleWriters(t *testing.T) {
	e := NewEngine(Config{ReplicateThreshold: 100, MigrateThreshold: 2})
	e.OnRemoteMiss(1, 5, true)
	e.OnRemoteMiss(2, 5, true)
	for i := 0; i < 6; i++ {
		if a := e.OnRemoteMiss(1, 5, true); a == Migrate {
			t.Fatal("migrated a multi-writer page")
		}
	}
}

func TestCollapseReplicas(t *testing.T) {
	e := NewEngine(Config{ReplicateThreshold: 1, MigrateThreshold: 100})
	e.OnRemoteMiss(1, 4, false)
	e.OnRemoteMiss(5, 4, false)
	if !e.HasReplica(1, 4) || !e.HasReplica(5, 4) {
		t.Fatal("replicas missing")
	}
	got := e.CollapseReplicas(4)
	if len(got) != 2 {
		t.Fatalf("collapsed %v", got)
	}
	if e.HasReplica(1, 4) || e.HasReplica(5, 4) {
		t.Fatal("replicas survived collapse")
	}
	if e.CollapseReplicas(4) != nil {
		t.Fatal("double collapse returned clusters")
	}
	if e.CollapseReplicas(99) != nil {
		t.Fatal("unknown page collapse returned clusters")
	}
}

func TestReplicaHitCounter(t *testing.T) {
	e := NewEngine(Config{})
	e.RecordReplicaHit()
	e.RecordReplicaHit()
	if e.ReplicaHits() != 2 {
		t.Fatal("replica hits")
	}
}
