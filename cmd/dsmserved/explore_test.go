package main

// The exploration crash drill (make explore-smoke), against the built
// binaries: dsmexplore -server drives a dsmserved through /v1/jobs, the
// server is SIGKILLed mid-exploration, and after a restart on the same
// ledger a second dsmexplore -server run re-uses the cells the ledger
// kept and prints CSV byte-identical to a clean server's and to a
// local run's.

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

// drillSpec is the exploration under test: Radix at small scale over
// none/sram/dram, four SRAM organizations and three NC sizes — 14
// cells, the baseline coalescing with the "none" point. One worker
// simulates them in about 2.5 s on a 2-core x86-64 box, so a kill after
// the first finished cell lands with most of them unfinished.
var drillSpec = []string{"-bench", "Radix", "-scale", "small", "-tech", "none,sram,dram",
	"-orgs", "nc,vb,vp,vxp", "-nc-kb", "4,16,64", "-csv", "-q"}

const drillCells = 14

// startServed launches the built dsmserved and waits out any ledger
// replay backlog before the test drives the API.
func startServed(t *testing.T, bin string, args ...string) *servedProc {
	t.Helper()
	p := startProc(t, "dsmserved", bin, nil, append([]string{"-addr", "127.0.0.1:0", "-q"}, args...)...)
	waitHealthy(t, p.base)
	return p
}

// exploreCmd prepares a dsmexplore run of drillSpec that dies with the
// test process and is killed if the test bails early.
func exploreCmd(t *testing.T, bin string, args ...string) (*exec.Cmd, *bytes.Buffer, *bytes.Buffer) {
	t.Helper()
	cmd := exec.Command(bin, append(append([]string{}, drillSpec...), args...)...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	t.Cleanup(func() {
		if cmd.Process != nil && cmd.ProcessState == nil {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
		}
	})
	return cmd, &stdout, &stderr
}

// runExplore runs dsmexplore to completion and returns its CSV.
func runExplore(t *testing.T, bin string, args ...string) []byte {
	t.Helper()
	cmd, stdout, stderr := exploreCmd(t, bin, args...)
	if err := cmd.Run(); err != nil {
		t.Fatalf("dsmexplore %v: %v\n%s", args, err, stderr)
	}
	if n := bytes.Count(stdout.Bytes(), []byte("\n")); n != drillCells+1 {
		t.Fatalf("dsmexplore %v printed %d CSV lines, want %d", args, n, drillCells+1)
	}
	return stdout.Bytes()
}

func TestExploreEndToEndBinary(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the dsmserved and dsmexplore binaries; skipped under -short")
	}
	dir := t.TempDir()
	served, explorer := filepath.Join(dir, "dsmserved"), filepath.Join(dir, "dsmexplore")
	for bin, pkg := range map[string]string{served: ".", explorer: "../dsmexplore"} {
		if out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, out)
		}
	}
	ledger := filepath.Join(dir, "explore.ledger")

	// Life 1: one worker serializes the cells. Once every cell is
	// acknowledged and the first has finished, SIGKILL the server: no
	// drain, no goodbye. The client must fail, not print a report.
	p1 := startServed(t, served, "-ledger", ledger, "-workers", "1")
	cut, _, cutErr := exploreCmd(t, explorer, "-server", p1.base)
	if err := cut.Start(); err != nil {
		t.Fatal(err)
	}
	waitMetricAtLeast(t, p1.base, "dsmnc_serve_submitted_total", drillCells, 60*time.Second)
	waitMetricAtLeast(t, p1.base, "dsmnc_serve_done_total", 1, 60*time.Second)
	if err := p1.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	<-p1.exited
	hung := time.AfterFunc(30*time.Second, func() { _ = cut.Process.Kill() })
	if err := cut.Wait(); err == nil || !hung.Stop() {
		t.Fatalf("dsmexplore must exit non-zero within 30s of its server's death mid-exploration (exit: %v)\n%s", err, cutErr)
	}

	// Life 2: same ledger. Finished cells come back with their results,
	// unfinished ones re-run under their old IDs; a kill that landed
	// before any cell finished, or after all of them, fails here.
	p2 := startServed(t, served, "-ledger", ledger, "-workers", "1")
	for _, m := range []string{"dsmnc_serve_recovered_total", "dsmnc_serve_replayed_total"} {
		v := metricValue(t, p2.base, m)
		if v < 1 {
			t.Fatalf("%s = %v after the restart, want >= 1: the kill did not land mid-exploration", m, v)
		}
		t.Logf("%s = %v", m, v)
	}
	recovered := runExplore(t, explorer, "-server", p2.base)
	sigtermAndWait(t, p2, "dsmserved")

	// A clean server with no history, and a local run: all three CSVs
	// must be byte-identical.
	p3 := startServed(t, served, "-ledger", filepath.Join(dir, "clean.ledger"), "-workers", "1")
	clean := runExplore(t, explorer, "-server", p3.base)
	sigtermAndWait(t, p3, "dsmserved")
	local := runExplore(t, explorer)
	if !bytes.Equal(recovered, clean) {
		t.Errorf("CSV after crash recovery differs from a clean server's:\n%s\nvs\n%s", recovered, clean)
	}
	if !bytes.Equal(clean, local) {
		t.Errorf("CSV from dsmexplore -server differs from a local run's:\n%s\nvs\n%s", clean, local)
	}
}
