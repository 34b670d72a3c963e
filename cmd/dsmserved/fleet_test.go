package main

// The fleet torture gate (make fleet-smoke): build the real dsmserved
// and dsmworker binaries (race-instrumented), run a coordinator over
// three worker processes, and prove the fleet contract under fire:
//
//   - SIGKILL a worker mid-sweep and blackhole another's traffic behind
//     a partition proxy (the process stays alive — the coordinator must
//     treat unreachable as dead and slow as alive): every acknowledged
//     job still completes, nothing completes twice, and the full golden
//     corpus replayed through the fleet is field-identical to the
//     committed cells.
//   - A worker slower than the lease TTL but answering polls keeps its
//     leases: zero reassignments (slow-is-not-dead).
//   - A full worker sheds with 429 instead of growing, joins duplicate
//     dispatches onto one task, and drains cleanly on SIGTERM.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"dsmnc/serve"
	"dsmnc/workload"
)

func TestFleetTorture(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and tortures real dsmserved+dsmworker processes; skipped under -short")
	}
	dir := t.TempDir()
	servedBin := filepath.Join(dir, "dsmserved")
	workerBin := filepath.Join(dir, "dsmworker")
	for bin, pkg := range map[string]string{servedBin: ".", workerBin: "../dsmworker"} {
		build := exec.Command("go", "build", "-race", "-o", bin, pkg)
		if out, err := build.CombinedOutput(); err != nil {
			t.Fatalf("go build -race %s: %v\n%s", pkg, err, out)
		}
	}

	t.Run("kill-partition-golden", func(t *testing.T) { fleetKillPartitionGolden(t, servedBin, workerBin) })
	t.Run("slow-is-not-dead", func(t *testing.T) { fleetSlowIsNotDead(t, servedBin, workerBin) })
	t.Run("worker-sheds-and-joins", func(t *testing.T) { fleetWorkerShedsAndJoins(t, workerBin) })
}

// fleetCell pairs one golden-corpus job body with its committed file.
type fleetCell struct {
	body   string
	golden string
}

// fleetGoldenCells is the full committed corpus as job requests — the
// same five systems per bench the serve determinism gate submits
// (request defaults are exactly the corpus parameters).
func fleetGoldenCells() []fleetCell {
	var cells []fleetCell
	for _, bench := range workload.Names() {
		for _, sys := range []string{"base", "nc", "vb", "vp"} {
			cells = append(cells, fleetCell{
				body:   fmt.Sprintf(`{"bench":%q,"system":%q}`, bench, sys),
				golden: sys + "_" + bench + ".json",
			})
		}
		cells = append(cells, fleetCell{
			body:   fmt.Sprintf(`{"bench":%q,"system":"vxp","pc_frac":5}`, bench),
			golden: "vxp5-t32_" + bench + ".json",
		})
	}
	return cells
}

// fleetKillPartitionGolden is the headline drill: three workers (one
// behind a blackhole proxy), the whole golden corpus submitted, one
// worker SIGKILLed and one partitioned mid-sweep. Required outcome:
// every acknowledged job done exactly once, results identical to the
// committed corpus, reassignment metrics showing the fabric actually
// rode through both failures.
func fleetKillPartitionGolden(t *testing.T, servedBin, workerBin string) {
	// 500ms per task keeps the sweep in flight long enough for the kill
	// and the partition to land on live work.
	slow := []string{"DSMNC_WORKER_SLOW_MS=500"}
	w0 := startProc(t, "dsmworker", workerBin, slow, "-addr", "127.0.0.1:0", "-slots", "2", "-q")
	w1 := startProc(t, "dsmworker", workerBin, slow, "-addr", "127.0.0.1:0", "-slots", "2", "-q")
	w2 := startProc(t, "dsmworker", workerBin, slow, "-addr", "127.0.0.1:0", "-slots", "2", "-q")
	px := newBlackhole(t, w2.addr())

	coord := startProc(t, "dsmserved", servedBin, nil,
		"-addr", "127.0.0.1:0",
		"-fleet", strings.Join([]string{w0.addr(), w1.addr(), px.addr()}, ","),
		"-ledger", filepath.Join(t.TempDir(), "fleet.ledger"),
		"-lease", "1s", "-retries", "8", "-drain", "60s", "-q")
	waitHealthy(t, coord.base)
	if slots := metricValue(t, coord.base, "dsmnc_serve_fleet_slots"); slots != 6 {
		t.Fatalf("fleet_slots gauge %v after probing three 2-slot workers, want 6", slots)
	}

	cells := fleetGoldenCells()
	acked := make([]ackedJob, 0, len(cells))
	for _, c := range cells {
		id, ok := submit(t, coord.base, c.body)
		if !ok {
			t.Fatalf("submit %s: coordinator did not acknowledge", c.body)
		}
		acked = append(acked, ackedJob{tortureJob: tortureJob{body: c.body, golden: c.golden}, id: id})
	}
	// Idempotency across the fleet: a duplicate submission coalesces
	// onto the existing job, it does not dispatch twice.
	if again, ok := submit(t, coord.base, cells[0].body); !ok || again != acked[0].id {
		t.Fatalf("duplicate submission got job %q, want coalescing onto %q", again, acked[0].id)
	}

	// Let the sweep get going, then murder w1 outright.
	waitMetricAtLeast(t, coord.base, "dsmnc_serve_done_total", 8, 120*time.Second)
	if err := w1.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	waitMetricAtLeast(t, coord.base, "dsmnc_serve_lease_lost_total", 1, 60*time.Second)

	// Partition w2: its process stays alive (we can still reach it
	// directly) but the coordinator's traffic blackholes. The fabric
	// must treat unreachable as dead — more leases lost — while the
	// direct probe proves the process never crashed.
	lostBefore := metricValue(t, coord.base, "dsmnc_serve_lease_lost_total")
	px.drop()
	resp, err := http.Get("http://" + w2.addr() + "/healthz")
	if err != nil {
		t.Fatalf("partitioned worker's direct liveness probe failed — it must stay alive: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("partitioned worker /healthz answered %d, want 200", resp.StatusCode)
	}
	waitMetricAtLeast(t, coord.base, "dsmnc_serve_lease_lost_total", lostBefore+1, 60*time.Second)
	px.heal()

	// Every acknowledged job must reach done and match its golden cell.
	for _, a := range acked {
		st := pollRecovered(t, coord.base, a.id)
		if st.State != serve.StateDone {
			t.Fatalf("job %s (%s) finished as %s: %s", a.id, a.body, st.State, st.Error)
		}
		diffGolden(t, coord.base, a)
	}

	// Exactly-once accounting: done counts each job once, nothing
	// failed, and the fabric really did reassign work off the dead and
	// partitioned nodes.
	if done := metricValue(t, coord.base, "dsmnc_serve_done_total"); done != float64(len(cells)) {
		t.Errorf("done_total %v, want exactly %d (duplicate or lost completions)", done, len(cells))
	}
	if failed := metricValue(t, coord.base, "dsmnc_serve_failed_total"); failed != 0 {
		t.Errorf("failed_total %v, want 0", failed)
	}
	if re := metricValue(t, coord.base, "dsmnc_serve_reassigned_total"); re < 1 {
		t.Errorf("reassigned_total %v, want >= 1 after a kill and a partition", re)
	}
	if lost := metricValue(t, coord.base, "dsmnc_serve_lease_lost_total"); lost < 2 {
		t.Errorf("lease_lost_total %v, want >= 2 (one per failure drill)", lost)
	}

	// Everything still alive drains cleanly.
	sigtermAndWait(t, coord, "coordinator")
	sigtermAndWait(t, w0, "worker w0")
	sigtermAndWait(t, w2, "worker w2")
}

// fleetSlowIsNotDead proves the lease distinction: a worker three times
// slower than the TTL, but answering status polls, keeps its leases —
// no reassignment, every job done on attempt one.
func fleetSlowIsNotDead(t *testing.T, servedBin, workerBin string) {
	w := startProc(t, "dsmworker", workerBin,
		[]string{"DSMNC_WORKER_SLOW_MS=3000"},
		"-addr", "127.0.0.1:0", "-slots", "2", "-q")
	coord := startProc(t, "dsmserved", servedBin, nil,
		"-addr", "127.0.0.1:0", "-fleet", w.addr(),
		"-lease", "1s", "-retries", "2", "-drain", "60s", "-q")
	waitHealthy(t, coord.base)

	var ids []string
	for _, body := range []string{
		`{"bench":"FFT","system":"nc"}`,
		`{"bench":"Ocean","system":"nc"}`,
	} {
		id, ok := submit(t, coord.base, body)
		if !ok {
			t.Fatalf("submit %s: not acknowledged", body)
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		st := pollRecovered(t, coord.base, id)
		if st.State != serve.StateDone {
			t.Fatalf("job %s finished as %s: %s", id, st.State, st.Error)
		}
		if st.Attempt != 1 {
			t.Errorf("job %s took %d attempts; a slow-but-answering worker must keep its lease", id, st.Attempt)
		}
	}
	if lost := metricValue(t, coord.base, "dsmnc_serve_lease_lost_total"); lost != 0 {
		t.Errorf("lease_lost_total %v on a slow but reachable fleet, want 0", lost)
	}
	if re := metricValue(t, coord.base, "dsmnc_serve_reassigned_total"); re != 0 {
		t.Errorf("reassigned_total %v, want 0", re)
	}
	sigtermAndWait(t, coord, "coordinator")
	sigtermAndWait(t, w, "worker")
}

// fleetWorkerShedsAndJoins drives the worker binary's wire API raw: a
// full worker answers 429 (shed, don't grow), duplicate dispatches join
// the held task, cancels free capacity, and SIGTERM drains cleanly. The
// worker's true options fingerprint is self-calibrated from its own 412
// answer, which exercises the mismatch path on the real binary too.
func fleetWorkerShedsAndJoins(t *testing.T, workerBin string) {
	// Tasks sleep 60s: admitted work stays live until canceled, so
	// capacity arithmetic is deterministic.
	w := startProc(t, "dsmworker", workerBin,
		[]string{"DSMNC_WORKER_SLOW_MS=60000"},
		"-addr", "127.0.0.1:0", "-slots", "1", "-queue", "1", "-drain", "10s", "-q")
	req := serve.Request{Bench: "FFT", System: "nc"}

	// Calibrate: a wellformed dispatch with a wrong fingerprint is
	// refused 412, and the refusal names the fingerprint the worker
	// computed for this request.
	code, ans := postWire(t, w.base, serve.WireRequest{
		ID: "aaaaaaaaaaaaaaaa", Attempt: 1, Epoch: 1,
		Fingerprint: "0000000000000000", Request: req,
	})
	if code != 412 {
		t.Fatalf("wrong-fingerprint dispatch answered %d: %s", code, ans)
	}
	m := regexp.MustCompile(`fingerprint ([0-9a-f]{16}) does not match`).FindSubmatch(ans)
	if m == nil {
		t.Fatalf("412 body does not name the worker's fingerprint: %s", ans)
	}
	fp := string(m[1])

	dispatch := func(id string) (int, []byte) {
		return postWire(t, w.base, serve.WireRequest{
			ID: id, Attempt: 1, Epoch: 1, Fingerprint: fp, Request: req,
		})
	}
	if code, ans := dispatch("1111111111111111"); code != 202 {
		t.Fatalf("first dispatch answered %d: %s", code, ans)
	}
	if code, ans := dispatch("2222222222222222"); code != 202 {
		t.Fatalf("second dispatch answered %d: %s", code, ans)
	}
	// 1 slot + 1 queue are both taken: the third dispatch must shed.
	if code, ans := dispatch("3333333333333333"); code != 429 {
		t.Fatalf("dispatch to a full worker answered %d, want 429: %s", code, ans)
	}
	// A duplicate of a held task joins it instead of counting against
	// capacity.
	if code, ans := dispatch("1111111111111111"); code != 200 {
		t.Fatalf("duplicate dispatch answered %d, want 200 join: %s", code, ans)
	}
	// A stale-epoch poll (epoch 0 never validates) is refused.
	if st := wireGet(t, w.base, "/v1/tasks/1111111111111111?epoch=0"); st != 409 {
		t.Fatalf("stale poll answered %d, want 409", st)
	}

	// Cancel the queued task; once it settles, the shed dispatch fits.
	if st := wireDelete(t, w.base, "/v1/tasks/2222222222222222?epoch=1"); st != 200 {
		t.Fatalf("cancel answered %d", st)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		code, ans := dispatch("3333333333333333")
		if code == 202 {
			break
		}
		if code != 429 {
			t.Fatalf("re-dispatch after cancel answered %d: %s", code, ans)
		}
		if time.Now().After(deadline) {
			t.Fatal("canceled task never freed capacity")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Drain cleanly: cancel the live tasks, then SIGTERM.
	if st := wireDelete(t, w.base, "/v1/tasks/1111111111111111?epoch=1"); st != 200 {
		t.Fatalf("cancel answered %d", st)
	}
	if st := wireDelete(t, w.base, "/v1/tasks/3333333333333333?epoch=1"); st != 200 {
		t.Fatalf("cancel answered %d", st)
	}
	if shed := metricValue(t, w.base, "dsmnc_serve_worker_shed_total"); shed < 1 {
		t.Errorf("worker shed_total %v, want >= 1", shed)
	}
	if joined := metricValue(t, w.base, "dsmnc_serve_worker_joined_total"); joined < 1 {
		t.Errorf("worker joined_total %v, want >= 1", joined)
	}
	sigtermAndWait(t, w, "worker")
}

// addr strips the scheme off a proc's base URL — the form worker
// addresses take in -fleet and in direct dials.
func (p *servedProc) addr() string { return strings.TrimPrefix(p.base, "http://") }

// sigtermAndWait asks a process to drain and requires a clean exit.
func sigtermAndWait(t *testing.T, p *servedProc, what string) {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-p.exited:
		if err != nil {
			t.Fatalf("%s exited uncleanly after SIGTERM: %v", what, err)
		}
	case <-time.After(90 * time.Second):
		t.Fatalf("%s did not exit within 90s of SIGTERM", what)
	}
}

// metricValue fetches one metric's current value off /metrics.
func metricValue(t *testing.T, base, name string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, perr := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if perr != nil {
				t.Fatalf("metric %s: unparsable value %q", name, rest)
			}
			return v
		}
	}
	t.Fatalf("metric %s not exposed on %s/metrics", name, base)
	return 0
}

// waitMetricAtLeast polls a metric until it reaches min.
func waitMetricAtLeast(t *testing.T, base, name string, min float64, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		if v := metricValue(t, base, name); v >= min {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("metric %s never reached %v within %s (now %v)",
				name, min, within, metricValue(t, base, name))
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// postWire POSTs one encoded wire dispatch to a worker.
func postWire(t *testing.T, base string, wr serve.WireRequest) (int, []byte) {
	t.Helper()
	body, err := wr.Encode()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/tasks", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	ans, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, ans
}

// wireGet hits a worker wire path and returns the status code.
func wireGet(t *testing.T, base, path string) int {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// wireDelete sends a worker wire cancel and returns the status code.
func wireDelete(t *testing.T, base, path string) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, base+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// blackhole is a TCP partition proxy: while dropped, accepted
// connections stay open but no byte crosses in either direction — the
// worker behind it is alive and computing, the coordinator just cannot
// hear it. Healing lets held traffic flow again.
type blackhole struct {
	ln      net.Listener
	target  string
	dropped atomic.Bool
}

func newBlackhole(t *testing.T, target string) *blackhole {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &blackhole{ln: ln, target: target}
	t.Cleanup(func() {
		p.heal() // unblock any pipes still gated
		_ = ln.Close()
	})
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go p.serve(c)
		}
	}()
	return p
}

func (p *blackhole) addr() string { return p.ln.Addr().String() }
func (p *blackhole) drop()        { p.dropped.Store(true) }
func (p *blackhole) heal()        { p.dropped.Store(false) }

func (p *blackhole) serve(c net.Conn) {
	defer c.Close()
	b, err := net.Dial("tcp", p.target)
	if err != nil {
		return
	}
	defer b.Close()
	done := make(chan struct{}, 2)
	go func() { p.pipe(b, c); done <- struct{}{} }()
	go func() { p.pipe(c, b); done <- struct{}{} }()
	<-done
}

// pipe copies one direction, gating each chunk on the partition flag: a
// blackholed chunk is held (not dropped), so a healed partition resumes
// mid-stream exactly like a real network recovering.
func (p *blackhole) pipe(dst, src net.Conn) {
	buf := make([]byte, 32<<10)
	for {
		n, rerr := src.Read(buf)
		if n > 0 {
			for p.dropped.Load() {
				time.Sleep(25 * time.Millisecond)
			}
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return
			}
		}
		if rerr != nil {
			return
		}
	}
}
