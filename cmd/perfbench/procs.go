package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one server process this run started: dsmserved or dsmworker.
type proc struct {
	cmd    *exec.Cmd
	addr   string        // host:port it listens on
	done   chan struct{} // closed once the process has exited
	stderr bytes.Buffer  // read only after done is closed
}

// procSet tracks every process of the run so none outlives it.
type procSet struct {
	mu    sync.Mutex
	procs []*proc
}

// start execs bin from dir with args and waits for its "listening on"
// line. The child dies with this process even if the benchmark is
// killed.
func (ps *procSet) start(dir, bin string, args ...string) (*proc, error) {
	cmd := exec.Command(filepath.Join(dir, bin), args...)
	p := &proc{cmd: cmd, done: make(chan struct{})}
	cmd.Stderr = &p.stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	ps.mu.Lock()
	ps.procs = append(ps.procs, p)
	ps.mu.Unlock()

	lines := make(chan string, 1)
	go func() {
		br := bufio.NewReader(stdout)
		line, _ := br.ReadString('\n')
		lines <- line
		// The pipe must be drained to EOF before Wait.
		_, _ = io.Copy(io.Discard, br)
		_ = cmd.Wait()
		close(p.done)
	}()
	select {
	case line := <-lines:
		f := strings.Fields(line)
		if len(f) == 0 || !strings.Contains(line, "listening on") {
			p.stop()
			return nil, fmt.Errorf("%s did not report its address (got %q): %s", bin, line, p.stderr.String())
		}
		p.addr = f[len(f)-1]
	case <-time.After(30 * time.Second):
		p.stop()
		return nil, fmt.Errorf("%s did not start within 30s: %s", bin, p.stderr.String())
	}
	return p, nil
}

// stop sends SIGTERM, and SIGKILL if the process has not exited 10s
// later, and waits until it has exited.
func (p *proc) stop() {
	select {
	case <-p.done:
		return
	default:
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

// stopAll stops every process of the set.
func (ps *procSet) stopAll() {
	ps.mu.Lock()
	procs := ps.procs
	ps.procs = nil
	ps.mu.Unlock()
	for _, p := range procs {
		p.stop()
	}
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MB.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}

// waitReady polls GET /readyz until it answers 200.
func waitReady(addr string, within time.Duration) error {
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(within)
	for {
		resp, err := hc.Get("http://" + addr + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				hc.CloseIdleConnections()
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready within %s", addr, within)
		}
		time.Sleep(time.Millisecond)
	}
}

// scrape reads the unlabeled series of a Prometheus text endpoint.
func scrape(addr string) (map[string]float64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", "http://"+addr+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scraping %s: %w", addr, err)
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}
