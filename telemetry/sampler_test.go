package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// mkSample builds a raw cumulative sample at the given reference count.
func mkSample(refs int64) Sample {
	return Sample{
		Refs:         refs,
		Reads:        refs * 3 / 4,
		Writes:       refs / 4,
		L1Hits:       refs * 9 / 10,
		NCHits:       refs / 20,
		RemoteMisses: refs / 25,
		Relocations:  refs / 1000,
		NCUsed:       128,
		NCFrames:     256,
		PCUsed:       3,
		PCFrames:     8,
	}
}

func TestSamplerDerivesIntervalRates(t *testing.T) {
	s := NewSampler(100, 16)
	s.Record(mkSample(100))
	s.Record(mkSample(200))
	got := s.Samples()
	if len(got) != 2 {
		t.Fatalf("retained %d samples, want 2", len(got))
	}
	first, second := got[0], got[1]
	if first.Seq != 0 || second.Seq != 1 {
		t.Fatalf("sequence numbers %d, %d", first.Seq, second.Seq)
	}
	if first.IntervalRefs != 100 || second.IntervalRefs != 100 {
		t.Fatalf("interval refs %d, %d, want 100, 100", first.IntervalRefs, second.IntervalRefs)
	}
	// Cumulative miss ratio at 200 refs: 8/200 = 4%.
	if second.MissPct != 4 {
		t.Fatalf("MissPct = %v, want 4", second.MissPct)
	}
	// Interval misses: 8-4 over 100 refs = 4%.
	if second.IntervalMissPct != 4 {
		t.Fatalf("IntervalMissPct = %v, want 4", second.IntervalMissPct)
	}
	// Bus: 100 interval refs minus 90 L1 hits = 10%.
	if second.BusUtilPct != 10 {
		t.Fatalf("BusUtilPct = %v, want 10", second.BusUtilPct)
	}
	if first.WallNanos != 0 || first.RefsPerSec != 0 {
		t.Fatalf("clockless sampler stamped wall fields: %+v", first)
	}
}

func TestSamplerRingBound(t *testing.T) {
	s := NewSampler(1, 4)
	for i := int64(1); i <= 10; i++ {
		s.Record(mkSample(i))
	}
	if s.Len() != 4 {
		t.Fatalf("Len = %d, want 4", s.Len())
	}
	if s.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", s.Dropped())
	}
	if s.Recorded() != 10 {
		t.Fatalf("Recorded = %d, want 10", s.Recorded())
	}
	got := s.Samples()
	for i, smp := range got {
		if want := int64(7 + i); smp.Refs != want {
			t.Fatalf("sample %d has Refs %d, want %d (oldest must be dropped first)", i, smp.Refs, want)
		}
	}
	latest, ok := s.Latest()
	if !ok || latest.Refs != 10 {
		t.Fatalf("Latest = %+v, %t", latest, ok)
	}
}

func TestSamplerClock(t *testing.T) {
	base := time.Unix(1000, 0)
	now := base
	s := NewSampler(10, 8).WithClock(func() time.Time { return now })
	now = now.Add(2 * time.Second)
	s.Record(mkSample(10))
	latest, _ := s.Latest()
	if latest.WallNanos != now.UnixNano() {
		t.Fatalf("WallNanos = %d, want %d", latest.WallNanos, now.UnixNano())
	}
	if latest.RefsPerSec != 5 { // 10 refs over 2 s
		t.Fatalf("RefsPerSec = %v, want 5", latest.RefsPerSec)
	}
}

func TestSamplerJSONLAndCSV(t *testing.T) {
	s := NewSampler(50, 8)
	s.Record(mkSample(50))
	s.Record(mkSample(100))

	var jsonl bytes.Buffer
	if err := s.WriteJSONL(&jsonl); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	sc := bufio.NewScanner(&jsonl)
	var decoded []Sample
	for sc.Scan() {
		var smp Sample
		if err := json.Unmarshal(sc.Bytes(), &smp); err != nil {
			t.Fatalf("line %d does not parse: %v", len(decoded), err)
		}
		decoded = append(decoded, smp)
	}
	if !reflect.DeepEqual(decoded, s.Samples()) {
		t.Fatalf("JSONL round trip diverges:\n%+v\n%+v", decoded, s.Samples())
	}

	var csv bytes.Buffer
	if err := s.WriteCSV(&csv); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV has %d lines, want header + 2", len(lines))
	}
	cols := len(strings.Split(lines[0], ","))
	for i, ln := range lines {
		if got := len(strings.Split(ln, ",")); got != cols {
			t.Fatalf("CSV line %d has %d columns, header has %d", i, got, cols)
		}
	}
}

// TestSamplerConcurrentAccess exercises Record against readers under
// the race detector.
func TestSamplerConcurrentAccess(t *testing.T) {
	s := NewSampler(1, 64)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s.Latest()
				s.Samples()
				s.Dropped()
				_ = s.WriteJSONL(discardWriter{})
			}
		}()
	}
	for i := int64(1); i <= 500; i++ {
		s.Record(mkSample(i))
	}
	close(stop)
	wg.Wait()
	if s.Recorded() != 500 {
		t.Fatalf("Recorded = %d, want 500", s.Recorded())
	}
}

type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }
