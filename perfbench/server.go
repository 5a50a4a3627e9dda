package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// readyTimeout bounds how long a server may take to become ready.
const readyTimeout = 120 * time.Second

// server is one running ttserve process.
type server struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	logs   *os.File
	exited chan struct{} // closed once the process has been waited for
	err    error         // the process's exit status, valid after exited
	once   sync.Once
}

// startServer spawns ttserve with args (plus a loopback listen address) and
// waits until /readyz answers 200. It returns the time from spawn to ready.
// The server's log goes to logPath.
func startServer(bin string, args []string, logPath string) (*server, time.Duration, error) {
	logs, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(bin, append(args, "-addr", "127.0.0.1:0")...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		logs.Close()
		return nil, 0, err
	}
	cmd.Stdout = logs
	// The server dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s := &server{cmd: cmd, logs: logs, exited: make(chan struct{})}
	addrc := make(chan string, 1)
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logs.Close()
		return nil, 0, fmt.Errorf("starting %s: %w", bin, err)
	}
	go func() {
		// The bootstrap listener logs its address before recovery starts.
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logs, line)
			if rest, ok := strings.CutPrefix(line, "ttserve: listening on "); ok {
				if f := strings.Fields(rest); len(f) > 0 {
					select {
					case addrc <- f[0]:
					default:
					}
				}
			}
		}
		_, _ = io.Copy(io.Discard, stderr)
		s.err = cmd.Wait()
		close(s.exited)
	}()
	deadline := time.After(readyTimeout)
	select {
	case addr := <-addrc:
		s.base = "http://" + addr
	case <-s.exited:
		return nil, 0, fmt.Errorf("ttserve exited before listening (%v); see %s", s.err, logPath)
	case <-deadline:
		s.stop()
		return nil, 0, fmt.Errorf("ttserve did not listen within %v; see %s", readyTimeout, logPath)
	}
	client := &http.Client{Timeout: 5 * time.Second}
	for {
		resp, err := client.Get(s.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				client.CloseIdleConnections()
				return s, time.Since(start), nil
			}
		}
		select {
		case <-s.exited:
			return nil, 0, fmt.Errorf("ttserve exited during recovery (%v); see %s", s.err, logPath)
		case <-deadline:
			s.stop()
			return nil, 0, fmt.Errorf("ttserve not ready within %v; see %s", readyTimeout, logPath)
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// stop kills the process and waits until it has exited; it is idempotent.
// Nothing the benchmark measures depends on a graceful drain, and the kill
// keeps the run short; durability of acknowledged batches is the server's
// own contract and covered by its crash tests.
func (s *server) stop() {
	s.once.Do(func() {
		_ = s.cmd.Process.Kill() // fails only if the process already exited
		<-s.exited
		s.logs.Close()
	})
}

// memMiB reads a memory figure (VmHWM, VmRSS) of the server from
// /proc/<pid>/status.
func (s *server) memMiB(field string) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %s %q: %w", field, rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, s.cmd.Process.Pid)
}

// sampleRSS reads the server's VmRSS every interval until done is closed,
// then sends the readings (MiB) on the returned channel.
func (s *server) sampleRSS(interval time.Duration, done <-chan struct{}) <-chan []float64 {
	out := make(chan []float64, 1)
	go func() {
		var rss []float64
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			if v, err := s.memMiB("VmRSS"); err == nil {
				rss = append(rss, v)
			}
			select {
			case <-done:
				out <- rss
				return
			case <-tick.C:
			}
		}
	}()
	return out
}

// statsz fetches and decodes /statsz into v.
func (s *server) statsz(v any) error {
	resp, err := http.Get(s.base + "/statsz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/statsz: %s", resp.Status)
	}
	return json.Unmarshal(body, v)
}
