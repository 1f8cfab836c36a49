package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"subtraj/internal/server"
)

// env owns everything a run leaves behind: the scratch directory (dataset
// gob, wedserve binary, WAL directories) and the wedserve children. Every
// exit path — normal return, failed check, SIGINT, the wall-time guard —
// goes through cleanup.
type env struct {
	dir      string // scratch, removed by cleanup
	wedserve string

	mu       sync.Mutex
	children []*child // guarded by mu
	closed   bool     // guarded by mu
}

// newEnv creates the scratch directory under ./.bench_build — the
// benchmark runs from the repository root — so a run writes nowhere
// outside its checkout.
func newEnv() (*env, error) {
	base := ".bench_build"
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return nil, err
	}
	if dir, err = filepath.Abs(dir); err != nil {
		return nil, err
	}
	return &env{dir: dir}, nil
}

// buildWedserve compiles cmd/wedserve once into the scratch directory.
func (e *env) buildWedserve() error {
	e.wedserve = filepath.Join(e.dir, "wedserve")
	cmd := exec.Command("go", "build", "-o", e.wedserve, "./cmd/wedserve")
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/wedserve: %v\n%s", err, out)
	}
	return nil
}

// cleanup kills every live child, waits for it, and removes the scratch
// directory. Safe to call more than once and from the signal goroutine.
func (e *env) cleanup() {
	e.mu.Lock()
	e.closed = true
	children := e.children
	e.children = nil
	e.mu.Unlock()
	for _, c := range children {
		c.kill()
	}
	os.RemoveAll(e.dir)
}

// child is one running wedserve.
type child struct {
	cmd   *exec.Cmd
	url   string
	setup time.Duration // exec → first 200 from /healthz
	log   *bytes.Buffer
	done  chan struct{} // closed when Wait returned
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// start launches wedserve on the dataset gob with default flags plus
// extra, and returns once /healthz answers 200.
func (e *env) start(gob string, extra ...string) (*child, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	args := append([]string{"-load", gob, "-addr", addr}, extra...)
	c := &child{
		cmd:  exec.Command(e.wedserve, args...),
		url:  "http://" + addr,
		log:  new(bytes.Buffer),
		done: make(chan struct{}),
	}
	c.cmd.Stderr = c.log
	c.cmd.Stdout = c.log

	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, errors.New("shutting down")
	}
	begin := time.Now()
	if err := c.cmd.Start(); err != nil {
		e.mu.Unlock()
		return nil, fmt.Errorf("exec wedserve: %w", err)
	}
	e.children = append(e.children, c)
	e.mu.Unlock()
	go func() {
		_ = c.cmd.Wait() // the exit status of a killed child carries no information
		close(c.done)
	}()

	hc := &http.Client{Timeout: time.Second}
	for {
		resp, err := hc.Get(c.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				c.setup = time.Since(begin)
				hc.CloseIdleConnections()
				return c, nil
			}
		}
		select {
		case <-c.done:
			return nil, fmt.Errorf("wedserve exited before becoming healthy:\n%s", tail(c.log.String(), 2000))
		default:
		}
		if time.Since(begin) > 90*time.Second {
			e.stop(c)
			return nil, fmt.Errorf("wedserve not healthy after 90 s:\n%s", tail(c.log.String(), 2000))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop ends a child gracefully (SIGTERM drains and closes the WAL),
// falling back to SIGKILL, and waits until it has exited.
func (e *env) stop(c *child) {
	_ = c.cmd.Process.Signal(syscall.SIGTERM) // fails only if already gone
	select {
	case <-c.done:
	case <-time.After(15 * time.Second):
		c.kill()
	}
	e.forget(c)
}

// crash SIGKILLs a child — no drain, no WAL close — and waits for it.
func (e *env) crash(c *child) {
	c.kill()
	e.forget(c)
}

func (c *child) kill() {
	_ = c.cmd.Process.Kill() // fails only if already gone
	<-c.done
}

func (e *env) forget(c *child) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i, x := range e.children {
		if x == c {
			e.children = append(e.children[:i], e.children[i+1:]...)
			return
		}
	}
}

// rssPeakMB reads the child's peak resident set (VmHWM) from /proc.
func (c *child) rssPeakMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc status")
}

// stats scrapes /v1/stats.
func (c *child) stats() (server.StatsSnapshot, error) {
	var snap server.StatsSnapshot
	err := c.getJSON("/v1/stats", &snap)
	return snap, err
}

// health is the part of /healthz the checks read.
type health struct {
	Trajectories int `json:"trajectories"`
	Shards       int `json:"shards"`
}

func (c *child) health() (health, error) {
	var h health
	err := c.getJSON("/healthz", &h)
	return h, err
}

func (c *child) getJSON(path string, dst any) error {
	resp, err := http.Get(c.url + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(dst)
}

func tail(s string, n int) string {
	if len(s) > n {
		return "..." + s[len(s)-n:]
	}
	return s
}
