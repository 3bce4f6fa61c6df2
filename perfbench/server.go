package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one hotserve subprocess and the HTTP clients that drive it.
type server struct {
	cmd  *exec.Cmd
	log  *os.File
	base string
	// load carries the measured traffic on at most `conns` connections;
	// ctl carries scrapes, health checks and reloads on its own.
	load, ctl *http.Client
	done      chan error // receives cmd.Wait's result once the process exits
}

// startServer launches hotserve on a free loopback port, serving the
// registry at regDir from the benchmark network, and waits until /healthz
// answers ok.
func startServer(bin, regDir, logPath string, maxInflight int) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	addr := net.JoinHostPort("127.0.0.1", strconv.Itoa(port))
	cmd := exec.Command(filepath.Join(bin, "hotserve"), append(netArgs(), "-registry", regDir, "-watch", "0",
		"-max-inflight", strconv.Itoa(maxInflight), "-addr", addr)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = dieWithParent()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start hotserve: %w", err)
	}
	s := &server{cmd: cmd, log: logf, base: "http://" + addr, done: make(chan error, 1),
		load: &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{
			MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}},
		ctl: &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{}},
	}
	go func() { s.done <- cmd.Wait() }()
	if err := s.waitHealthy(90 * time.Second); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// dieWithParent has the kernel kill a child if this process dies first,
// so an interrupted run leaves no server or sweep behind.
func dieWithParent() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// waitHealthy polls /healthz until it reports ok, the process exits, or
// the deadline passes.
func (s *server) waitHealthy(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case err := <-s.done:
			s.done <- err
			return fmt.Errorf("hotserve exited during start-up (%v); see %s", err, s.log.Name())
		default:
		}
		resp, err := s.ctl.Get(s.base + "/healthz")
		if err == nil {
			var h struct {
				Status string `json:"status"`
			}
			derr := json.NewDecoder(resp.Body).Decode(&h)
			resp.Body.Close()
			if derr == nil && h.Status == "ok" {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("hotserve not healthy after %v; see %s", limit, s.log.Name())
}

// stop sends SIGTERM, waits for the graceful drain, and kills the process
// if it has not exited after 15 s.
func (s *server) stop() error {
	defer s.log.Close()
	s.load.CloseIdleConnections()
	s.ctl.CloseIdleConnections()
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-s.done:
		return err
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
		return fmt.Errorf("hotserve did not drain within 15s; killed")
	}
}

// clockTicks is Linux's USER_HZ, the unit of /proc/<pid>/stat times. It is
// 100 on every mainstream architecture and not queryable without cgo.
const clockTicks = 100

// cpuSeconds is the server's user + system CPU time so far, from
// /proc/<pid>/stat (fields 14 and 15, in clock ticks).
func (s *server) cpuSeconds() (float64, error) {
	pid := s.cmd.Process.Pid
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields resume after
	// its closing parenthesis, starting at field 3.
	i := bytes.LastIndexByte(raw, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad cpu times in /proc/%d/stat", pid)
	}
	return float64(ut+st) / clockTicks, nil
}

// peakRSSMB is the server's VmHWM in MiB.
func (s *server) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", s.cmd.Process.Pid)
}

// ranking is one served (or oracle) top-k list.
type ranking struct {
	Model  string `json:"model"`
	Target string `json:"target"`
	T      int    `json:"t"`
	Top    []struct {
		Sector int     `json:"sector"`
		Score  float64 `json:"score"`
	} `json:"top"`
	Error string `json:"error"`
}

// check validates a served ranking against the query that asked for it.
func (r *ranking) check(q query) error {
	switch {
	case r.Error != "":
		return fmt.Errorf("query error: %s", r.Error)
	case r.Model != q.Model || r.Target != targetName(q.Target) || r.T != q.T:
		return fmt.Errorf("answered %s/%s t=%d for %s/%s t=%d", r.Model, r.Target, r.T, q.Model, q.Target, q.T)
	case len(r.Top) != q.K:
		return fmt.Errorf("got %d sectors, want %d", len(r.Top), q.K)
	}
	return nil
}

// targetName maps a query's target selector to the name /forecast echoes.
func targetName(sel string) string {
	if sel == "become" {
		return "become-hot-spot"
	}
	return "hot-spot"
}

// errShed marks a 503 from admission control.
var errShed = fmt.Errorf("shed (503)")

// forecast sends one GET /forecast.
func (s *server) forecast(q query) (*ranking, error) {
	v := url.Values{"model": {q.Model}, "target": {q.Target}, "t": {strconv.Itoa(q.T)}, "k": {strconv.Itoa(q.K)}}
	resp, err := s.load.Get(s.base + "/forecast?" + v.Encode())
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if err := statusErr(resp); err != nil {
		return nil, err
	}
	var r ranking
	if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
		return nil, fmt.Errorf("decode /forecast: %w", err)
	}
	return &r, r.check(q)
}

// batch sends one POST /forecast/batch; per-query failures come back as
// errs[i] != nil.
func (s *server) batch(qs []query) ([]ranking, []error, error) {
	body, err := json.Marshal(map[string][]query{"queries": qs})
	if err != nil {
		return nil, nil, err
	}
	resp, err := s.load.Post(s.base+"/forecast/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	if err := statusErr(resp); err != nil {
		return nil, nil, err
	}
	var out struct {
		Results []ranking `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, nil, fmt.Errorf("decode /forecast/batch: %w", err)
	}
	if len(out.Results) != len(qs) {
		return nil, nil, fmt.Errorf("batch of %d answered %d results", len(qs), len(out.Results))
	}
	errs := make([]error, len(qs))
	for i := range qs {
		errs[i] = out.Results[i].check(qs[i])
	}
	return out.Results, errs, nil
}

// reload forces POST /reload.
func (s *server) reload() error {
	resp, err := s.ctl.Post(s.base+"/reload", "application/json", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := statusErr(resp); err != nil {
		return err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

func statusErr(resp *http.Response) error {
	if resp.StatusCode == http.StatusOK {
		return nil
	}
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	if resp.StatusCode == http.StatusServiceUnavailable {
		return errShed
	}
	return fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
}
