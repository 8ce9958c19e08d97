package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procResult is one finished child process. CPU and peak RSS come from
// wait4, so they include every descendant the child reaped (the fabric's
// worker subprocesses): CPU is summed, RSS is the largest single process.
type procResult struct {
	start          time.Time
	wall           time.Duration
	cpu            float64 // user+sys seconds
	maxRSSMB       float64
	stdout, stderr []byte
	exit           int
}

// newCmd builds a child in its own process group, so a run that overruns
// the invocation's budget is killed together with its subprocesses; the
// child is also killed if the benchmark itself dies.
func newCmd(ctx context.Context, dir string, extraEnv []string, name string, args ...string) *exec.Cmd {
	cmd := exec.CommandContext(ctx, name, args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), extraEnv...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
	cmd.WaitDelay = 5 * time.Second
	return cmd
}

// runProc runs a child to completion within the invocation's budget.
func (e *env) runProc(dir string, extraEnv []string, name string, args ...string) (procResult, error) {
	cmd := newCmd(e.ctx, dir, extraEnv, name, args...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	r := procResult{start: time.Now()}
	err := cmd.Run()
	r.wall = time.Since(r.start)
	r.stdout, r.stderr = out.Bytes(), errb.Bytes()
	if e.ctx.Err() != nil {
		return r, fmt.Errorf("%s overran the run budget: %s", name, tail(r.stderr))
	}
	if err != nil {
		if _, ok := err.(*exec.ExitError); !ok {
			return r, err
		}
	}
	r.exit = cmd.ProcessState.ExitCode()
	r.cpu, r.maxRSSMB = usage(cmd.ProcessState)
	return r, nil
}

func usage(ps *os.ProcessState) (cpu, rssMB float64) {
	cpu = (ps.UserTime() + ps.SystemTime()).Seconds()
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return cpu, rssMB
}

// procCPU reads a live process's user+sys CPU seconds from /proc.
func procCPU(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	return float64(ut+st) / clockTicks, nil
}

// clockTicks is USER_HZ, 100 on every Linux platform Go supports.
const clockTicks = 100

// tail returns the last few lines of a child's stderr for error messages.
func tail(b []byte) string {
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) > 8 {
		lines = lines[len(lines)-8:]
	}
	return strings.Join(lines, "\n")
}
