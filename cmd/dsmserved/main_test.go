package main

// Loopback acceptance for the serving API: a real scheduler behind the
// real handler on an httptest server. The contract under test is the
// ISSUE's: submissions are validated (400), shed under pressure (429 +
// Retry-After), idempotent (a resubmission coalesces), streamable, and
// a served result equals a direct dsmnc.Run of the same options.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"dsmnc"
	"dsmnc/serve"
	"dsmnc/telemetry"
	"dsmnc/workload"
)

func newTestServer(t *testing.T, cfg serve.Config) (*httptest.Server, *serve.Scheduler) {
	t.Helper()
	s, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	if err := s.RegisterMetrics(reg); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newHandler(s, reg))
	t.Cleanup(func() {
		ts.Close()
		if err := s.Drain(context.Background()); err != nil {
			t.Errorf("Drain: %v", err)
		}
	})
	return ts, s
}

func postJob(t *testing.T, ts *httptest.Server, body string) (serve.Status, *http.Response) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st serve.Status
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decode submit response: %v", err)
		}
	}
	return st, resp
}

func pollDone(t *testing.T, ts *httptest.Server, id string) serve.Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st serve.Status
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after 30s", id, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestServeLoopbackEndToEnd(t *testing.T) {
	ts, _ := newTestServer(t, serve.Config{})

	st, resp := postJob(t, ts, `{"bench":"FFT","system":"vb"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, want 202", resp.StatusCode)
	}
	if st.ID == "" || st.Bench != "FFT" || st.System != "vb" {
		t.Fatalf("submit status %+v", st)
	}
	final := pollDone(t, ts, st.ID)
	if final.State != serve.StateDone {
		t.Fatalf("job finished %s: %s", final.State, final.Error)
	}

	rresp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer rresp.Body.Close()
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("result: status %d, want 200", rresp.StatusCode)
	}
	var payload struct {
		Status serve.Status `json:"status"`
		Result dsmnc.Result `json:"result"`
	}
	if err := json.NewDecoder(rresp.Body).Decode(&payload); err != nil {
		t.Fatal(err)
	}

	opt := dsmnc.DefaultOptions()
	opt.Scale = workload.ScaleSmall
	direct, err := dsmnc.Run(workload.ByName("FFT", workload.ScaleSmall), dsmnc.VB(16<<10), opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(payload.Result, direct) {
		t.Error("served result is not identical to a direct Run of the same options")
	}

	// Resubmitting the same work coalesces onto the finished job: 200,
	// same ID, no new run.
	st2, resp2 := postJob(t, ts, `{"bench":"FFT","system":"vb"}`)
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("resubmit: status %d, want 200", resp2.StatusCode)
	}
	if st2.ID != st.ID || st2.State != serve.StateDone {
		t.Errorf("resubmit coalesced onto %+v, want done job %s", st2, st.ID)
	}

	// The metrics endpoint accounts for the served work.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	metrics, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"dsmnc_serve_submitted_total 1",
		"dsmnc_serve_deduped_total 1",
		"dsmnc_serve_done_total 1",
	} {
		if !bytes.Contains(metrics, []byte(want)) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestServeHTTPErrors(t *testing.T) {
	ts, _ := newTestServer(t, serve.Config{})
	post := func(body string) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	if resp := post(`{"bench":"FFT"`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("truncated JSON: status %d, want 400", resp.StatusCode)
	}
	if resp := post(`{"bench":"FFT","system":"warp"}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown system: status %d, want 400", resp.StatusCode)
	}
	resp := post(`{"bench":"FFT","system":"base","nc_bytes":1024}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid params: status %d, want 400", resp.StatusCode)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
		t.Errorf("400 body carries no error: %v %+v", err, e)
	}
	for _, path := range []string{"/v1/jobs/beef", "/v1/jobs/beef/result", "/v1/jobs/beef/stream"} {
		gresp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		gresp.Body.Close()
		if gresp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, gresp.StatusCode)
		}
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/beef", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNotFound {
		t.Errorf("DELETE unknown: status %d, want 404", dresp.StatusCode)
	}
}

func TestServeShedsWithRetryAfter(t *testing.T) {
	ts, s := newTestServer(t, serve.Config{Workers: 1, QueueDepth: 1})
	// Draining is the deterministic way to make Submit shed: the HTTP
	// mapping (429 + Retry-After) is the same one a full queue takes.
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	_, resp := postJob(t, ts, `{"bench":"FFT","system":"base"}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit while draining: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 carries no Retry-After header")
	}
	// The probes split: liveness stays green while draining (the process
	// is up; restarting it would only hurt), readiness goes red and says
	// why.
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Errorf("healthz while draining: status %d, want 200 (liveness)", hresp.StatusCode)
	}
	rresp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var rd serve.Readiness
	decodeErr := json.NewDecoder(rresp.Body).Decode(&rd)
	rresp.Body.Close()
	if decodeErr != nil {
		t.Fatal(decodeErr)
	}
	if rresp.StatusCode != http.StatusServiceUnavailable || rd.Ready || rd.Reason != "draining" {
		t.Errorf("readyz while draining: status %d, body %+v; want 503 draining", rresp.StatusCode, rd)
	}
}

func TestServeHealthz(t *testing.T) {
	ts, _ := newTestServer(t, serve.Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: status %d, want 200", resp.StatusCode)
	}
	rresp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var rd serve.Readiness
	decodeErr := json.NewDecoder(rresp.Body).Decode(&rd)
	rresp.Body.Close()
	if decodeErr != nil {
		t.Fatal(decodeErr)
	}
	if rresp.StatusCode != http.StatusOK || !rd.Ready || rd.Reason != "ok" {
		t.Errorf("readyz on a healthy server: status %d, body %+v; want 200 ok", rresp.StatusCode, rd)
	}
	if len(rd.Executors) == 0 {
		t.Error("readyz reports no executor fault domains")
	}
}

func TestServeStream(t *testing.T) {
	ts, _ := newTestServer(t, serve.Config{})
	st, resp := postJob(t, ts, `{"bench":"FFT","system":"base","scale":"test"}`)
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	sresp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if ct := sresp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream Content-Type %q", ct)
	}
	var last serve.Status
	var events int
	sc := bufio.NewScanner(sresp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		events++
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &last); err != nil {
			t.Fatalf("bad SSE payload %q: %v", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if events == 0 || last.State != serve.StateDone {
		t.Errorf("stream delivered %d events ending in %q, want a done terminal", events, last.State)
	}
}

func TestServeStreamKeepalive(t *testing.T) {
	// With the keepalive interval shrunk, a stream held open by a slow
	// job must carry comment frames between data frames — the probe that
	// reaps dead clients on a real deployment.
	old := sseKeepalive
	sseKeepalive = 5 * time.Millisecond
	t.Cleanup(func() { sseKeepalive = old })

	ts, _ := newTestServer(t, serve.Config{})
	st, resp := postJob(t, ts, `{"bench":"Ocean","system":"vp","scale":"small"}`)
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	sresp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var keepalives, events int
	sc := bufio.NewScanner(sresp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, ": keepalive"):
			keepalives++
		case strings.HasPrefix(line, "data: "):
			events++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if keepalives == 0 {
		t.Errorf("stream carried %d events but no keepalive comments", events)
	}
}

func TestServeCancelOverHTTP(t *testing.T) {
	// One worker wedged on a deliberately slow job keeps the second job
	// queued long enough to cancel it deterministically.
	ts, _ := newTestServer(t, serve.Config{Workers: 1, QueueDepth: 8})
	blocker, resp := postJob(t, ts, `{"bench":"Ocean","system":"vp","scale":"small"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit blocker: status %d", resp.StatusCode)
	}
	victim, resp := postJob(t, ts, `{"bench":"Radix","system":"vp","scale":"small"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit victim: status %d", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+victim.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var st serve.Status
	if err := json.NewDecoder(dresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if st.ID != victim.ID {
		t.Errorf("DELETE answered for job %s, want %s", st.ID, victim.ID)
	}
	// The victim either settled as canceled, or (if the blocker finished
	// first) is already past cancellation; a canceled end state is the
	// overwhelmingly likely one, but both are legal — what is not legal
	// is an error or a lost job.
	final := pollDone(t, ts, victim.ID)
	if final.State != serve.StateCanceled && final.State != serve.StateDone {
		t.Errorf("victim ended %s (%s)", final.State, final.Error)
	}
	if final = pollDone(t, ts, blocker.ID); final.State != serve.StateDone {
		t.Errorf("blocker ended %s: %s", final.State, final.Error)
	}
}
