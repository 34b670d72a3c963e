package main

// End-to-end acceptance for /v1/explore against the real binary: the
// same spec submitted twice coalesces onto one run ID, an exploration
// SIGKILLed mid-flight survives a restart on the same ledger (its cells
// are ordinary journaled jobs, so the re-posted exploration re-uses
// them), and the report it then serves is byte-identical to one from a
// completely clean server.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dsmnc/explore"
)

// exploreSpec is the wire spec under test: four ScaleSmall FFT cells,
// enough simulation work for the SIGKILL to land mid-exploration.
const exploreSpec = `{"bench":"FFT","scale":"small","tech":["none","sram"],"orgs":["nc","vb","vp"],"nc_kb":[16]}`

// startServed launches the built dsmserved and waits out any ledger
// replay backlog before the test drives the API.
func startServed(t *testing.T, bin string, args ...string) *servedProc {
	t.Helper()
	p := startProc(t, "dsmserved", bin, nil, append([]string{"-addr", "127.0.0.1:0", "-q"}, args...)...)
	waitHealthy(t, p.base)
	return p
}

// postExplore submits a spec and decodes the run status.
func postExplore(t *testing.T, base, spec string) (explore.RunStatus, int) {
	t.Helper()
	resp, err := http.Post(base+"/v1/explore", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st explore.RunStatus
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decode explore response: %v", err)
		}
	}
	return st, resp.StatusCode
}

// waitExplore polls a run to its terminal state.
func waitExplore(t *testing.T, base, id string) explore.RunStatus {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/explore/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st explore.RunStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State != explore.RunActive {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("exploration still %s (%+v) after 120s", st.State, st.Progress)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// fetchReport gets the canonical report bytes of a finished run.
func fetchReport(t *testing.T, base, id string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/v1/explore/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: status %d: %s", resp.StatusCode, data)
	}
	return data
}

func TestExploreEndToEndBinary(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the dsmserved binary; skipped under -short")
	}
	bin := filepath.Join(t.TempDir(), "dsmserved")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	ledger := filepath.Join(t.TempDir(), "explore.ledger")

	// Server 1: submit, coalesce, then SIGKILL mid-exploration. One
	// worker serializes the cells so the kill lands with work pending.
	p1 := startServed(t, bin, "-ledger", ledger, "-workers", "1")
	st, code := postExplore(t, p1.base, exploreSpec)
	if code != http.StatusAccepted || st.ID == "" {
		t.Fatalf("first POST: status %d (%+v)", code, st)
	}
	st2, code2 := postExplore(t, p1.base, exploreSpec)
	if code2 != http.StatusOK || st2.ID != st.ID {
		t.Fatalf("resubmission did not coalesce: status %d, ID %q vs %q", code2, st2.ID, st.ID)
	}
	// A junk spec is rejected at the door.
	if _, badCode := postExplore(t, p1.base, `{"bench":"FFT","bogus":1}`); badCode != http.StatusBadRequest {
		t.Fatalf("junk spec: status %d, want 400", badCode)
	}
	// SIGKILL — no drain, no goodbye. The acknowledged cell jobs are in
	// the ledger; the in-memory exploration is gone.
	if err := p1.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	<-p1.exited

	// Server 2: same ledger. The replayed jobs re-run under their old
	// IDs; re-posting the spec starts a fresh exploration that coalesces
	// onto them through the scheduler's idempotent fingerprints.
	p2 := startServed(t, bin, "-ledger", ledger)
	rst, rcode := postExplore(t, p2.base, exploreSpec)
	if rcode != http.StatusAccepted && rcode != http.StatusOK {
		t.Fatalf("re-POST after restart: status %d", rcode)
	}
	if rst.ID != st.ID {
		t.Fatalf("spec fingerprint changed across restart: %q vs %q", rst.ID, st.ID)
	}
	final := waitExplore(t, p2.base, rst.ID)
	if final.State != explore.RunDone || final.Error != "" {
		t.Fatalf("exploration finished %s: %s", final.State, final.Error)
	}
	if final.Progress.Phase != "frontier" {
		t.Errorf("terminal phase %q, want frontier", final.Progress.Phase)
	}
	recovered := fetchReport(t, p2.base, rst.ID)

	// The explore metrics are live on /metrics.
	mresp, err := http.Get(p2.base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, series := range []string{"dsmnc_explore_runs_total 1", "dsmnc_explore_done_total 1"} {
		if !strings.Contains(string(mbody), series) {
			t.Errorf("metrics missing %q", series)
		}
	}

	// The SSE stream of a finished run delivers its terminal status.
	sresp, err := http.Get(p2.base + "/v1/explore/" + rst.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	sbody, _ := io.ReadAll(sresp.Body)
	sresp.Body.Close()
	if !strings.Contains(string(sbody), `"state":"done"`) {
		t.Errorf("SSE stream of a finished run lacks the terminal status: %q", sbody)
	}

	sigtermAndWait(t, p2, "dsmserved")

	// Server 3: clean ledger, no history. The recovered report must be
	// byte-identical to this from-scratch one.
	p3 := startServed(t, bin, "-ledger", filepath.Join(t.TempDir(), "clean.ledger"))
	cst, ccode := postExplore(t, p3.base, exploreSpec)
	if ccode != http.StatusAccepted {
		t.Fatalf("clean POST: status %d", ccode)
	}
	if fin := waitExplore(t, p3.base, cst.ID); fin.State != explore.RunDone {
		t.Fatalf("clean exploration finished %s: %s", fin.State, fin.Error)
	}
	clean := fetchReport(t, p3.base, cst.ID)
	if !bytes.Equal(recovered, clean) {
		t.Errorf("report after crash-recovery differs from the clean run:\n%s\nvs\n%s", recovered, clean)
	}
}
