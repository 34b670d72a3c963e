package flatmap

import "testing"

// lcg is the deterministic generator used across the repo's tests.
type lcg uint64

func (g *lcg) next() uint64 {
	*g = *g*6364136223846793005 + 1442695040888963407
	return uint64(*g)
}

// TestMapDifferential drives Map and a builtin map with the same
// operation stream and requires identical contents throughout. The key
// range is kept small so slots collide, probe chains wrap and the table
// grows several times.
func TestMapDifferential(t *testing.T) {
	var m Map[int64]
	ref := map[uint64]int64{}
	g := lcg(1)
	for op := 0; op < 200_000; op++ {
		k := g.next() % 5000
		switch g.next() % 4 {
		case 0:
			// Lookup.
			p := m.Get(k)
			rv, ok := ref[k]
			if (p != nil) != ok {
				t.Fatalf("op %d: Get(%d) presence %v, want %v", op, k, p != nil, ok)
			}
			if ok && *p != rv {
				t.Fatalf("op %d: Get(%d) = %d, want %d", op, k, *p, rv)
			}
			continue
		case 1:
			// Delete (backward-shift compaction).
			m.Del(k)
			delete(ref, k)
		default:
			v := int64(g.next() % 1000)
			p, created := m.Put(k)
			_, existed := ref[k]
			if created == existed {
				t.Fatalf("op %d: Put(%d) created=%v but ref presence %v", op, k, created, existed)
			}
			*p = v
			ref[k] = v
		}
		if m.Len() != len(ref) {
			t.Fatalf("op %d: Len = %d, want %d", op, m.Len(), len(ref))
		}
	}
	if m.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", m.Len(), len(ref))
	}
	n := 0
	m.Range(func(k uint64, v *int64) bool {
		if ref[k] != *v {
			t.Fatalf("Range key %d: %d != %d", k, *v, ref[k])
		}
		n++
		return true
	})
	if n != len(ref) {
		t.Fatalf("Range visited %d entries, want %d", n, len(ref))
	}
}

// TestCounterDifferential exercises the deletable counter table —
// including the backward-shift removal that keeps probe chains intact —
// against a builtin map.
func TestCounterDifferential(t *testing.T) {
	var c Counter
	ref := map[uint64]uint32{}
	g := lcg(7)
	for op := 0; op < 300_000; op++ {
		k := g.next() % 900 // dense: heavy collisions and chain wraps
		switch g.next() % 5 {
		case 0, 1:
			got := c.Incr(k)
			ref[k]++
			if got != ref[k] {
				t.Fatalf("op %d: Incr(%d) = %d, want %d", op, k, got, ref[k])
			}
		case 2:
			c.Dec(k)
			switch ref[k] {
			case 0:
			case 1:
				delete(ref, k)
			default:
				ref[k]--
			}
		case 3:
			c.Del(k)
			delete(ref, k)
		case 4:
			if got, want := c.Get(k), ref[k]; got != want {
				t.Fatalf("op %d: Get(%d) = %d, want %d", op, k, got, want)
			}
		}
		if c.Len() != len(ref) {
			t.Fatalf("op %d: Len = %d, want %d", op, c.Len(), len(ref))
		}
	}
	for k, v := range ref {
		if got := c.Get(k); got != v {
			t.Fatalf("final key %d: %d != %d", k, got, v)
		}
	}
	n := 0
	c.Range(func(k uint64, v uint32) bool {
		if ref[k] != v {
			t.Fatalf("Range key %d: %d != %d", k, v, ref[k])
		}
		n++
		return true
	})
	if n != len(ref) {
		t.Fatalf("Range visited %d counters, want %d", n, len(ref))
	}
}
