package main

// The serve-smoke gate (make serve-smoke): build the real dsmserved
// binary, start it on a free port, submit the Figure-9 base/FFT cell
// over the wire, poll to completion, diff the served stats against the
// committed golden corpus, then SIGTERM the server and require a clean,
// zero-status drain.

import (
	"encoding/json"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dsmnc"
	"dsmnc/serve"
	"dsmnc/stats"
)

func TestServeSmokeBinary(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the dsmserved binary; skipped under -short")
	}
	bin := filepath.Join(t.TempDir(), "dsmserved")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	p := startProc(t, "dsmserved", bin, nil, "-addr", "127.0.0.1:0", "-drain", "30s")
	base := p.base

	// Both probes answer on a fresh server: liveness because the
	// process is up, readiness because there is no replay backlog and
	// no quarantined executor.
	for _, probe := range []string{"/healthz", "/readyz"} {
		presp, err := http.Get(base + probe)
		if err != nil {
			t.Fatal(err)
		}
		presp.Body.Close()
		if presp.StatusCode != http.StatusOK {
			t.Fatalf("%s on a fresh server: status %d, want 200", probe, presp.StatusCode)
		}
	}

	// Submit the Figure-9 baseline cell and poll it to completion.
	resp, err := http.Post(base+"/v1/jobs", "application/json",
		strings.NewReader(`{"bench":"FFT","system":"base","scale":"small"}`))
	if err != nil {
		t.Fatal(err)
	}
	var st serve.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d (%+v)", resp.StatusCode, st)
	}
	deadline := time.Now().Add(60 * time.Second)
	for !st.State.Terminal() {
		if time.Now().After(deadline) {
			t.Fatalf("job still %s after 60s", st.State)
		}
		time.Sleep(20 * time.Millisecond)
		gresp, err := http.Get(base + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(gresp.Body).Decode(&st)
		gresp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	if st.State != serve.StateDone {
		t.Fatalf("job finished %s: %s", st.State, st.Error)
	}

	rresp, err := http.Get(base + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	var payload struct {
		Result dsmnc.Result `json:"result"`
	}
	err = json.NewDecoder(rresp.Body).Decode(&payload)
	rresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}

	// Diff against the committed golden cell.
	raw, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", "base_FFT.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want struct {
		Refs  int64          `json:"refs"`
		Stats stats.Counters `json:"stats"`
	}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if payload.Result.Refs != want.Refs {
		t.Errorf("served Refs %d, golden %d", payload.Result.Refs, want.Refs)
	}
	for _, d := range stats.DiffCounters(payload.Result.Counters, want.Stats) {
		t.Error("served vs golden: " + d.String())
	}

	// SIGTERM must drain and exit zero.
	sigtermAndWait(t, p, "dsmserved")
}
