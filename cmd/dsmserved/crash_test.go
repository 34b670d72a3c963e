package main

// The kill-torture gate (make crash-smoke): build the real dsmserved
// binary (race-instrumented), SIGKILL it at every ledger crash point
// via the DSMNC_SERVE_CRASH hook, restart it on the same ledger, and
// require the durability contract of docs/robustness.md §5: no job the
// server acknowledged is ever lost, nothing completes twice, and every
// recovered result is field-identical to the committed golden corpus.

import (
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"dsmnc"
	"dsmnc/serve"
	"dsmnc/stats"
)

// tortureJob pairs a request body with its committed golden cell.
type tortureJob struct {
	body   string
	golden string
}

var tortureJobs = []tortureJob{
	{`{"bench":"FFT","system":"base","scale":"small"}`, "base_FFT.json"},
	{`{"bench":"FFT","system":"nc","scale":"small"}`, "nc_FFT.json"},
}

// ackedJob is a submission the dying server acknowledged: the contract
// says it must survive the kill.
type ackedJob struct {
	tortureJob
	id string
}

func TestCrashTorture(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and repeatedly SIGKILLs the dsmserved binary; skipped under -short")
	}
	bin := filepath.Join(t.TempDir(), "dsmserved")
	build := exec.Command("go", "build", "-race", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build -race: %v\n%s", err, out)
	}

	// One scenario per crash point, at occurrences chosen so the kill
	// lands in every phase of a two-job run on one worker with
	// compaction after every terminal record: before anything is
	// durable, after the first acknowledgement, inside the terminal
	// appends (torn and synced), and on both sides of compaction's
	// atomic rename.
	scenarios := []struct {
		name string
		spec string
	}{
		{"before-first-write", "ledger.append.pre-write:1"},
		{"after-first-ack", "ledger.append.post-sync:1"},
		{"terminal-torn", "ledger.append.post-write:4"},
		{"all-done-durable", "ledger.append.post-sync:6"},
		{"compact-before-rename", "ledger.compact.pre-rename:1"},
		{"compact-after-rename", "ledger.compact.post-rename:1"},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			ledger := filepath.Join(t.TempDir(), "jobs.ledger")

			// Life 1: armed to die. Submit the torture jobs until the
			// SIGKILL lands; whatever was acknowledged is the contract.
			srv1 := startServer(t, bin, ledger, "DSMNC_SERVE_CRASH="+sc.spec)
			var acked []ackedJob
			for _, j := range tortureJobs {
				id, ok := submit(t, srv1.base, j.body)
				if !ok {
					break // the crash landed mid-request: not acknowledged
				}
				acked = append(acked, ackedJob{tortureJob: j, id: id})
			}
			select {
			case err := <-srv1.exited:
				var exitErr *exec.ExitError
				if err == nil {
					t.Fatal("server exited cleanly; the armed crash point never fired")
				} else if !errors.As(err, &exitErr) || exitErr.Sys().(syscall.WaitStatus).Signal() != syscall.SIGKILL {
					t.Fatalf("server died of %v, want the self-inflicted SIGKILL", err)
				}
			case <-time.After(120 * time.Second):
				_ = srv1.cmd.Process.Kill()
				t.Fatal("crash point did not fire within 120s")
			}

			// Life 2: unarmed restart on the same ledger. Readiness must
			// gate on recovery, then every acknowledged job must reach
			// done with its golden result — re-run or restored, the
			// engine's determinism makes the two indistinguishable.
			srv2 := startServer(t, bin, ledger)
			waitHealthy(t, srv2.base)
			for _, a := range acked {
				st := pollRecovered(t, srv2.base, a.id)
				if st.State != serve.StateDone {
					t.Fatalf("acknowledged job %s recovered as %s: %s", a.id, st.State, st.Error)
				}
				diffGolden(t, srv2.base, a)
				// A client retry must coalesce onto the finished job, not
				// start a duplicate.
				resp, err := http.Post(srv2.base+"/v1/jobs", "application/json", strings.NewReader(a.body))
				if err != nil {
					t.Fatal(err)
				}
				var again serve.Status
				decodeErr := json.NewDecoder(resp.Body).Decode(&again)
				resp.Body.Close()
				if decodeErr != nil {
					t.Fatal(decodeErr)
				}
				if resp.StatusCode != http.StatusOK || again.ID != a.id || again.State != serve.StateDone {
					t.Fatalf("retry of %s: status %d, job %+v; want 200 coalescing onto the done job", a.id, resp.StatusCode, again)
				}
			}

			// A SIGTERM drain must still exit zero after all that.
			sigtermAndWait(t, srv2, "recovered server")
		})
	}
}

// startServer launches the built binary on a free port with the given
// ledger and extra environment. The torture runs one worker behind a
// tiny queue with compaction after every terminal record, so every
// crash point is reachable within two jobs.
func startServer(t *testing.T, bin, ledger string, extraEnv ...string) *servedProc {
	t.Helper()
	return startProc(t, "dsmserved", bin, extraEnv,
		"-addr", "127.0.0.1:0", "-workers", "1", "-ledger", ledger,
		"-ledger-compact", "1", "-drain", "60s", "-q")
}

// submit POSTs one job; ok is false when the server died mid-request —
// the submission was never acknowledged and carries no guarantee.
func submit(t *testing.T, base, body string) (id string, ok bool) {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		return "", false
	}
	defer resp.Body.Close()
	var st serve.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return "", false
	}
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("submit %s: unexpected status %d (%+v)", body, resp.StatusCode, st)
	}
	return st.ID, true
}

// waitHealthy polls the readiness probe until recovery finishes and the
// server answers 200 — /readyz is the probe that gates on the replay
// backlog; /healthz is liveness only and turns green immediately.
func waitHealthy(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			code := resp.StatusCode
			resp.Body.Close()
			if code == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("server never became ready after restart")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// pollRecovered polls a recovered job's status to a terminal state.
func pollRecovered(t *testing.T, base, id string) serve.Status {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st serve.Status
		decodeErr := json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if decodeErr != nil {
			t.Fatal(decodeErr)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status of acknowledged job %s: %d — the kill lost it", id, resp.StatusCode)
		}
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after 120s", id, st.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// diffGolden fetches a recovered job's result and requires it
// field-identical to the committed golden cell.
func diffGolden(t *testing.T, base string, a ackedJob) {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + a.id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	var payload struct {
		Result dsmnc.Result `json:"result"`
	}
	decodeErr := json.NewDecoder(resp.Body).Decode(&payload)
	resp.Body.Close()
	if decodeErr != nil {
		t.Fatal(decodeErr)
	}
	raw, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", a.golden))
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
		t.Errorf("%s: recovered Refs %d, golden %d", a.golden, payload.Result.Refs, want.Refs)
	}
	for _, d := range stats.DiffCounters(payload.Result.Counters, want.Stats) {
		t.Errorf("%s recovered vs golden: %s", a.golden, d.String())
	}
}
