package main

// Loopback tests of the remote Submitter's status mapping: an
// exploration driven through it against an httptest stand-in for
// dsmserved's /v1/jobs routes, backed by a real scheduler.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dsmnc/explore"
	"dsmnc/serve"
)

// testSpec is two test-scale points plus the baseline: three cells.
var testSpec = explore.Space{Bench: "FFT", Scale: "test", Tech: []string{"none", "sram"}, Orgs: []string{"nc"}, NCKB: []int{16}}

// fakeServed answers POST /v1/jobs, GET /v1/jobs/{id}/stream and
// GET /v1/jobs/{id}/result from a real scheduler, with hooks to inject
// the failures dsmserved can answer.
type fakeServed struct {
	s          *serve.Scheduler
	posts      atomic.Int64
	reject     func(n int64) (int, string) // a non-zero code answers POST n (from 1)
	failSystem string                      // this system's jobs stream a failed terminal frame
	hang       bool                        // streams send one queued frame, then idle
}

func newFakeServed(t *testing.T, f *fakeServed) *remote {
	t.Helper()
	s, err := serve.New(serve.Config{Workers: 2, QueueDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	f.s = s
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", f.post)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", f.stream)
	mux.HandleFunc("GET /v1/jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		res, st, err := s.Result(r.PathValue("id"))
		if err != nil {
			answer(w, http.StatusNotFound, map[string]string{"error": err.Error()})
			return
		}
		answer(w, http.StatusOK, map[string]any{"status": st, "result": res})
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(func() {
		ts.Close()
		_ = s.Drain(context.Background())
	})
	return newRemote(context.Background(), ts.URL)
}

func (f *fakeServed) post(w http.ResponseWriter, r *http.Request) {
	n := f.posts.Add(1)
	if f.reject != nil {
		if code, msg := f.reject(n); code != 0 {
			answer(w, code, map[string]string{"error": msg})
			return
		}
	}
	var req serve.Request
	_ = json.NewDecoder(r.Body).Decode(&req) // a bad body fails Submit's validation
	st, err := f.s.Submit(req)
	if err != nil {
		answer(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
		return
	}
	answer(w, http.StatusAccepted, st)
}

func (f *fakeServed) stream(w http.ResponseWriter, r *http.Request) {
	frame := func(st serve.Status) {
		data, _ := json.Marshal(st)
		fmt.Fprintf(w, ": keepalive\n\ndata: %s\n\n", data)
		w.(http.Flusher).Flush()
	}
	if f.hang {
		frame(serve.Status{ID: r.PathValue("id"), State: serve.StateQueued})
		<-r.Context().Done()
		return
	}
	ch, err := f.s.Watch(r.PathValue("id"))
	if err != nil {
		answer(w, http.StatusNotFound, map[string]string{"error": err.Error()})
		return
	}
	for st := range ch {
		if st.State.Terminal() && st.System == f.failSystem {
			st.State, st.Error = serve.StateFailed, "injected failure"
		}
		frame(st)
	}
}

func answer(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// TestRemoteRetriesShedSubmission: a 429 is retried through the
// engine's backoff, the exploration completes, and its report is
// byte-identical to one run on an in-process scheduler.
func TestRemoteRetriesShedSubmission(t *testing.T) {
	f := &fakeServed{reject: func(n int64) (int, string) {
		if n == 1 {
			return http.StatusTooManyRequests, "serve: queue full: 3 queued"
		}
		return 0, ""
	}}
	sub := newFakeServed(t, f)
	rep, err := (&explore.Engine{Sub: sub}).Run(context.Background(), testSpec)
	if err != nil {
		t.Fatalf("Run through a shed-then-accept server: %v", err)
	}
	if f.posts.Load() < 4 {
		t.Errorf("%d POSTs, want the shed one plus one per cell (>= 4)", f.posts.Load())
	}
	local, err := (&explore.Engine{Sub: f.s}).Run(context.Background(), testSpec)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := rep.Canonical()
	want, _ := local.Canonical()
	if !bytes.Equal(got, want) {
		t.Errorf("remote report differs from the in-process one:\n%s\nvs\n%s", got, want)
	}
}

// TestRemoteRefusalFailsFast: a 400, or a 429 from a draining server,
// is not retried, and the error carries the server's text.
func TestRemoteRefusalFailsFast(t *testing.T) {
	for _, tc := range []struct {
		code int
		msg  string
	}{
		{http.StatusBadRequest, `serve: invalid job request: json: unknown field "bogus"`},
		{http.StatusTooManyRequests, serve.ErrDraining.Error()},
	} {
		f := &fakeServed{reject: func(int64) (int, string) { return tc.code, tc.msg }}
		_, err := (&explore.Engine{Sub: newFakeServed(t, f)}).Run(context.Background(), testSpec)
		if err == nil || !strings.Contains(err.Error(), tc.msg) {
			t.Fatalf("%d: Run = %v, want an error carrying %q", tc.code, err, tc.msg)
		}
		if errors.Is(err, serve.ErrBusy) != (tc.code == http.StatusTooManyRequests) {
			t.Errorf("%d: mapped to %v", tc.code, err)
		}
		if n := f.posts.Load(); n != 1 {
			t.Errorf("%d: %d POSTs, want 1: the refusal must not be retried", tc.code, n)
		}
	}
}

// TestRemoteFailedJobNamesCell: a cell whose job ends failed aborts
// the exploration with an error naming the cell.
func TestRemoteFailedJobNamesCell(t *testing.T) {
	sub := newFakeServed(t, &fakeServed{failSystem: "nc"})
	_, err := (&explore.Engine{Sub: sub}).Run(context.Background(), testSpec)
	if err == nil || !strings.Contains(err.Error(), "sram-nc-16K-w4") || !strings.Contains(err.Error(), "injected failure") {
		t.Fatalf("Run = %v, want an error naming cell sram-nc-16K-w4 and the failure", err)
	}
}

// TestRemoteWaitHonorsCancel: a canceled context ends a Wait on a
// stream that never reaches a terminal frame.
func TestRemoteWaitHonorsCancel(t *testing.T) {
	sub := newFakeServed(t, &fakeServed{hang: true})
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := sub.Wait(ctx, "some-job")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Wait = %v, want the context's deadline error", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("Wait took %v to notice the canceled context", d)
	}
}
