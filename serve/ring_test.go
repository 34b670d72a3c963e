package serve

// Metamorphic properties of the consistent-hash routing: the assignment
// is a pure function of the name set (registration order and replica
// identity are irrelevant), and a node joining or leaving moves only
// ~1/N of the fingerprints — every key not homed on the departed node
// keeps exactly the home it had.

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"dsmnc"
)

// ringKeys fabricates job-ID-shaped routing keys.
func ringKeys(n int) []string {
	rng := rand.New(rand.NewSource(7))
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("%016x", rng.Uint64())
	}
	return keys
}

func ringNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("10.0.0.%d:9city", i+1)
	}
	return names
}

// TestRingPermutationInvariance: the ring is canonical in the name set —
// any registration order routes every key identically.
func TestRingPermutationInvariance(t *testing.T) {
	names := ringNames(5)
	keys := ringKeys(2000)
	base := newRing(names)
	perm := append([]string{}, names...)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 5; trial++ {
		rng.Shuffle(len(perm), func(i, k int) { perm[i], perm[k] = perm[k], perm[i] })
		r := newRing(perm)
		for _, key := range keys {
			if got, want := r.pick(key), base.pick(key); got != want {
				t.Fatalf("order %v routes %s to %s; canonical order routes it to %s", perm, key, got, want)
			}
		}
	}
	// Duplicates collapse rather than double a node's share.
	dup := newRing(append(append([]string{}, names...), names...))
	for _, key := range keys[:200] {
		if got, want := dup.pick(key), base.pick(key); got != want {
			t.Fatalf("duplicated names route %s to %s; want %s", key, got, want)
		}
	}
}

// TestRingStabilityUnderLeave: removing one node relocates only that
// node's keys — every survivor-homed key keeps exactly its home — and
// the departed node's share is ~1/N of the keyspace.
func TestRingStabilityUnderLeave(t *testing.T) {
	names := ringNames(6)
	keys := ringKeys(6000)
	full := newRing(names)
	gone := names[2]
	smaller := newRing(append(append([]string{}, names[:2]...), names[3:]...))
	moved, displaced := 0, 0
	for _, key := range keys {
		before := full.pick(key)
		after := smaller.pick(key)
		if before == gone {
			displaced++
			if after == gone {
				t.Fatalf("key %s still routes to the removed node", key)
			}
			continue
		}
		if after != before {
			moved++
		}
	}
	if moved != 0 {
		t.Fatalf("%d keys not homed on the removed node changed homes; consistent hashing moves only the departed share", moved)
	}
	share := float64(displaced) / float64(len(keys))
	if share < 0.5/6 || share > 2.0/6 {
		t.Fatalf("removed node held %.1f%% of the keyspace; want ~%.1f%%", 100*share, 100.0/6)
	}
}

// TestRingStabilityUnderJoin: adding a node steals ~1/(N+1) of the keys
// and every key it does not steal keeps exactly its home.
func TestRingStabilityUnderJoin(t *testing.T) {
	names := ringNames(5)
	keys := ringKeys(6000)
	before := newRing(names)
	joined := "10.0.0.99:9city"
	after := newRing(append(append([]string{}, names...), joined))
	stolen, moved := 0, 0
	for _, key := range keys {
		b, a := before.pick(key), after.pick(key)
		if a == joined {
			stolen++
			continue
		}
		if a != b {
			moved++
		}
	}
	if moved != 0 {
		t.Fatalf("%d keys moved between pre-existing nodes on a join; only the new node may gain keys", moved)
	}
	share := float64(stolen) / float64(len(keys))
	if share < 0.5/6 || share > 2.0/6 {
		t.Fatalf("joined node stole %.1f%% of the keyspace; want ~%.1f%%", 100*share, 100.0/6)
	}
}

// TestRingOrderIsCompleteFallback: the ring walk from any key visits
// every node exactly once, starting at the key's home — the fallback
// order a dispatch follows when domains are unhealthy.
func TestRingOrderIsCompleteFallback(t *testing.T) {
	names := ringNames(4)
	r := newRing(names)
	for _, key := range ringKeys(200) {
		order := r.order(key)
		if len(order) != len(names) {
			t.Fatalf("order(%s) visits %d nodes; want all %d", key, len(order), len(names))
		}
		if order[0] != r.pick(key) {
			t.Fatalf("order(%s) starts at %s, not the home %s", key, order[0], r.pick(key))
		}
		seen := map[string]bool{}
		for _, name := range order {
			if seen[name] {
				t.Fatalf("order(%s) visits %s twice", key, name)
			}
			seen[name] = true
		}
	}
	if empty := newRing(nil); empty.pick("0123456789abcdef") != "" || empty.order("0123456789abcdef") != nil {
		t.Fatal("empty ring should route nowhere")
	}
}

// TestHashRoutingReplicaAgreement is the coordinator-replica half of the
// metamorphic property: two schedulers configured with the same executor
// names — registered in different orders — dispatch every job of the
// same spec to the same fault domain, and each job lands on its ring
// home.
func TestHashRoutingReplicaAgreement(t *testing.T) {
	before := runtime.NumGoroutine()
	names := []string{"node-a", "node-b", "node-c"}
	build := func(order []int) (*Scheduler, *sync.Map) {
		var ran sync.Map // task ID -> executor name
		execs := make([]Executor, 0, len(names))
		for _, i := range order {
			name := names[i]
			execs = append(execs, &funcExecutor{name: name, fn: func(ctx context.Context, task *Task, l *Lease) (dsmnc.Result, error) {
				ran.Store(task.ID, name)
				return dsmnc.Result{Refs: 1}, nil
			}})
		}
		s, err := New(Config{Workers: 2, Executors: execs,
			runFn: func(ctx context.Context, j *job) (dsmnc.Result, error) { return dsmnc.Result{}, nil }})
		if err != nil {
			t.Fatal(err)
		}
		return s, &ran
	}
	sA, ranA := build([]int{0, 1, 2})
	sB, ranB := build([]int{2, 0, 1})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ring := newRing(names)
	homes := map[string]bool{}
	for n := 0; n < 24; n++ {
		stA, err := sA.Submit(req(n))
		if err != nil {
			t.Fatal(err)
		}
		stB, err := sB.Submit(req(n))
		if err != nil {
			t.Fatal(err)
		}
		if stA.ID != stB.ID {
			t.Fatalf("replicas derived different IDs for the same request: %s vs %s", stA.ID, stB.ID)
		}
		if _, err := sA.Wait(ctx, stA.ID); err != nil {
			t.Fatal(err)
		}
		if _, err := sB.Wait(ctx, stB.ID); err != nil {
			t.Fatal(err)
		}
		a, okA := ranA.Load(stA.ID)
		b, okB := ranB.Load(stB.ID)
		if !okA || !okB {
			t.Fatalf("job %s did not run on both replicas", stA.ID)
		}
		if a != b {
			t.Fatalf("replicas routed job %s to different domains: %v vs %v", stA.ID, a, b)
		}
		if home := ring.pick(stA.ID); a != home {
			t.Fatalf("job %s ran on %v, not its ring home %s", stA.ID, a, home)
		}
		homes[a.(string)] = true
	}
	if len(homes) < 2 {
		t.Fatalf("all 24 jobs landed on one domain; the ring is not spreading (homes %v)", homes)
	}
	if err := sA.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if err := sB.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	checkNoGoroutineLeak(t, before)
}

// TestHashRoutingFallsBackOffHome: when a job's home domain keeps
// surrendering the lease, the retry walks the ring to the next domain
// instead of failing — and the breaker/quarantine machinery from PR 7
// applies to ring routing unchanged.
func TestHashRoutingFallsBackOffHome(t *testing.T) {
	before := runtime.NumGoroutine()
	names := []string{"node-a", "node-b", "node-c"}
	var mu sync.Mutex
	ranOn := []string{}
	execs := make([]Executor, 0, len(names))
	for _, name := range names {
		name := name
		execs = append(execs, &funcExecutor{name: name, fn: func(ctx context.Context, task *Task, l *Lease) (dsmnc.Result, error) {
			mu.Lock()
			ranOn = append(ranOn, name)
			first := len(ranOn) == 1
			mu.Unlock()
			if first {
				return dsmnc.Result{}, fmt.Errorf("%w: home node rebooted", ErrLeaseLost)
			}
			return dsmnc.Result{Refs: 1}, nil
		}})
	}
	s, err := New(Config{Workers: 1, Executors: execs,
		MaxRetries: 2, retryBackoff: -1,
		runFn: func(ctx context.Context, j *job) (dsmnc.Result, error) { return dsmnc.Result{}, nil }})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Submit(req(0))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	fin, err := s.Wait(ctx, st.ID)
	if err != nil || fin.State != StateDone {
		t.Fatalf("job after home loss: %v / %v", fin, err)
	}
	ring := newRing(names)
	order := ring.order(st.ID)
	mu.Lock()
	defer mu.Unlock()
	if len(ranOn) != 2 || ranOn[0] != order[0] || ranOn[1] != order[1] {
		t.Fatalf("attempts ran on %v; want the ring walk %v", ranOn, order[:2])
	}
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	checkNoGoroutineLeak(t, before)
}
