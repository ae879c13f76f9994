package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one server process the benchmark started.
type server struct {
	cmd     *exec.Cmd
	base    string        // http://host:port
	exec    time.Time     // just before the process was started
	drained chan struct{} // closed once its stdout reaches EOF
}

// startServer execs bin with args and waits for its "listening on
// http://ADDR" line. Standard error goes to errLog.
func startServer(bin string, args []string, env []string, errLog io.Writer) (*server, error) {
	cmd := exec.Command(bin, args...)
	cmd.Env = env
	cmd.Stderr = errLog
	// A generator killed from outside takes its server down with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, drained: make(chan struct{})}
	s.exec = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	addr := make(chan string, 1)
	go func() {
		defer close(s.drained)
		sc := bufio.NewScanner(out)
		found := false
		for sc.Scan() {
			if _, rest, ok := strings.Cut(sc.Text(), "listening on "); ok && !found {
				found = true
				addr <- strings.Fields(rest)[0]
			}
		}
		_, _ = io.Copy(io.Discard, out)
		if !found {
			close(addr)
		}
	}()
	select {
	case a, ok := <-addr:
		if ok {
			s.base = a
			return s, nil
		}
	case <-time.After(30 * time.Second):
	}
	s.kill()
	return nil, fmt.Errorf("%s did not report a listen address", bin)
}

// stop asks the server to drain (SIGTERM) and waits for it to exit,
// killing it after 30 s.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.kill()
		return err
	}
	waited := make(chan error, 1)
	go func() {
		<-s.drained
		waited <- s.cmd.Wait()
	}()
	select {
	case err := <-waited:
		return err
	case <-time.After(30 * time.Second):
		_ = s.cmd.Process.Kill()
		<-waited
		return fmt.Errorf("server pid %d did not drain within 30s", s.cmd.Process.Pid)
	}
}

// kill ends the process without draining and reaps it.
func (s *server) kill() {
	_ = s.cmd.Process.Kill()
	<-s.drained
	_ = s.cmd.Wait()
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times on Linux.
const clockTick = 100

// cpuMS is the process's user+system CPU time in milliseconds.
func (s *server) cpuMS() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc stat")
	}
	f := strings.Fields(string(b[i+1:]))
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc stat times")
	}
	return float64(ut+st) * 1000 / clockTick, nil
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func (s *server) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(v)
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// selfCPUMS is this process's user+system CPU time in milliseconds.
func selfCPUMS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e6
}
