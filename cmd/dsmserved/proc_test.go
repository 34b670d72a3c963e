package main

import (
	"bufio"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
)

// servedProc is one dsmserved or dsmworker binary under test.
type servedProc struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	exited chan error
}

// startProc launches a built binary (dsmserved or dsmworker — both
// print "<name> listening on ADDR" on stdout first), parses its address
// and arranges cleanup. It does not wait for readiness: fleet drills
// need a worker's address before the coordinator exists.
//
// The child is SIGKILLed when the test process dies, because a
// go test -timeout panic skips t.Cleanup and would otherwise leave it
// running. GORACE makes a race in a -race build fatal.
func startProc(t *testing.T, name, bin string, extraEnv []string, args ...string) *servedProc {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GORACE=halt_on_error=1")
	cmd.Env = append(cmd.Env, extraEnv...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &servedProc{cmd: cmd, exited: make(chan error, 1)}
	go func() { p.exited <- cmd.Wait() }()
	t.Cleanup(func() {
		// ProcessState is set once Wait has returned; only a test that
		// bailed early still owns a live process to kill.
		if cmd.ProcessState == nil {
			_ = cmd.Process.Kill()
			<-p.exited
		}
	})
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		t.Fatalf("no startup line from %s: %v", name, sc.Err())
	}
	line := sc.Text()
	addr := line[strings.LastIndex(line, " ")+1:]
	if !strings.Contains(line, "listening on") || addr == "" {
		t.Fatalf("unexpected %s startup line %q", name, line)
	}
	p.base = "http://" + addr
	go func() { // keep the pipe drained
		for sc.Scan() {
		}
	}()
	return p
}
