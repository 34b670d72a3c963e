package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of the traced run: a call into one layer.
// Spans of one request (or sweep cell) share req; parent is the id of
// the span that caused this one, 0 for a root.
type span struct {
	id, parent int
	req        int64
	layer      string
	start, end int64 // nanoseconds since the recorder's epoch
}

// recorder keeps a run's spans in memory until the run ends.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// add records one span and returns its id (1-based, so 0 means "no
// parent").
func (r *recorder) add(req int64, parent int, layer string, start, end time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		id: id, parent: parent, req: req, layer: layer,
		start: start.Sub(r.epoch).Nanoseconds(), end: end.Sub(r.epoch).Nanoseconds(),
	})
	return id
}

// snapshot returns a copy of the recorded spans.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeSpans writes a traced run's spans out as JSON lines under
// .bench_build, one file per workload and seed.
func writeSpans(e *env, workload string, spans []span) error {
	path := filepath.Join(e.root, ".bench_build", fmt.Sprintf("spans-%s-%d.jsonl", workload, e.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range spans {
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"req":%d,"layer":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			s.id, s.parent, s.req, s.layer, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes sums, per layer, the self time of its spans: each span's
// duration minus the part of that interval its child spans cover.
// Children are clipped to their parent, so the self times of one tree
// add up to its root's duration exactly.
func selfTimes(spans []span) map[string]time.Duration {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.layer] += time.Duration(s.end - s.start - covered(s, kids[s.id]))
	}
	return out
}

// covered returns the length of the union of the children's intervals
// clipped to the parent's.
func covered(parent span, children []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.start, parent.start), min(c.end, parent.end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, k int) bool { return ivs[i].a < ivs[k].a })
	var total int64
	for i := 0; i < len(ivs); {
		a, b := ivs[i].a, ivs[i].b
		for i++; i < len(ivs) && ivs[i].a <= b; i++ {
			b = max(b, ivs[i].b)
		}
		total += b - a
	}
	return total
}
