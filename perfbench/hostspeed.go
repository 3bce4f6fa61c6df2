package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The host-speed probe. The reference host is a shared VM whose cores run
// up to 2.5x slower in stretches of seconds to minutes, with no steal
// time to show for it: CPU time inflates with wall time. A run of half a
// minute lands in one or two stretches, so its raw times measure the host
// as much as the program. perfbench therefore measures in segments and,
// just before each one and once after the last, while hotserve is idle,
// probes the host with a fixed load of the same shape as hotserve's: a
// closed loop on two connections against a reference server, a second
// perfbench process whose requests each run a fixed few milliseconds of
// table walks and integer work and answer ~1 KB of JSON. A segment's times
// are scaled to the reference speed:
//
//	time at reference speed = measured time × probeRef / probe
//
// where probe is the mean of the probes either side. The raw figures are
// printed beside the scaled ones. The reference server is perfbench's own
// code, so a change to the programs cannot move it except by leaving work
// running while they are idle, which the scaled figures would then hide in
// part; every phase line prints the range of its segments' probe times,
// which would show it.

const (
	// probeRequests is how many requests each probe connection sends.
	probeRequests = 30
	// probeRef is the probe's median on the reference host (2 vCPU Intel
	// Xeon VM, Go 1.24), in seconds per request: the speed every scaled
	// figure is quoted at.
	probeRef = 0.0022
)

// refTable is the reference work's 1 MiB random-access table.
var refTable = func() []uint32 {
	t := make([]uint32, 1<<18)
	x := uint32(2463534242)
	for i := range t {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		t[i] = x
	}
	return t
}()

// refWork is one reference request's work: a dependent walk over
// refTable with data-dependent branches, the shape of a tree descent, then
// xorshift rounds in registers.
func refWork(seed uint64) uint64 {
	idx, acc := uint32(seed), uint32(0)
	mask := uint32(len(refTable) - 1)
	for i := 0; i < 30000; i++ {
		v := refTable[idx&mask]
		if v&1 == 0 {
			acc += v
		} else {
			acc ^= v >> 3
		}
		idx = v ^ acc ^ uint32(i)
	}
	x, sum := seed|1, uint64(acc)
	for i := 0; i < 300000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if x&3 == 0 {
			sum += x
		} else {
			sum ^= x >> 5
		}
	}
	return sum
}

// refPad fills a reference answer to about the size of a top-10 ranking.
var refPad = strings.Repeat("0123456789", 90)

// refHandler answers GET /?s=<seed> with the seed's refWork.
func refHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s, err := strconv.ParseUint(r.URL.Query().Get("s"), 10, 64)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		fmt.Fprintf(w, `{"sum":%d,"pad":%q}`, refWork(s), refPad)
	})
}

// serveRef runs the reference server on addr until the process is killed.
func serveRef(addr string) error { return http.ListenAndServe(addr, refHandler()) }

// refServer is the running reference server and its probe client.
type refServer struct {
	cmd  *exec.Cmd // nil when the server runs in this process (tests)
	done chan error
	base string
	cl   *http.Client
}

// hostRef is the reference server every probe uses; main starts it.
var hostRef *refServer

// startRef launches this program again as the reference server on a free
// loopback port and waits until it answers.
func startRef() (*refServer, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := net.JoinHostPort("127.0.0.1", strconv.Itoa(port))
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-ref-server", addr)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = dieWithParent()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start reference server: %w", err)
	}
	s := newRefClient("http://" + addr)
	s.cmd, s.done = cmd, make(chan error, 1)
	go func() { s.done <- cmd.Wait() }()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if err := s.get(1); err == nil {
			return s, nil
		} else if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("reference server not answering: %w", err)
		}
	}
}

func newRefClient(base string) *refServer {
	return &refServer{base: base, cl: &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{
		MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}}}
}

// stop kills the reference server and waits for it to exit.
func (s *refServer) stop() {
	s.cl.CloseIdleConnections()
	if s.cmd != nil {
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

func (s *refServer) get(seed int) error {
	resp, err := s.cl.Get(s.base + "/?s=" + strconv.Itoa(seed))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("reference server: status %d", resp.StatusCode)
	}
	return nil
}

// probe runs the closed loop against the reference server and returns its
// wall seconds per request.
func (s *refServer) probe() (float64, error) {
	var wg sync.WaitGroup
	errs := make([]error, conns)
	t0 := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < probeRequests && errs[c] == nil; i++ {
				errs[c] = s.get(c*probeRequests + i + 1)
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return time.Since(t0).Seconds() / float64(conns*probeRequests), nil
}

// probeHost probes the host through hostRef.
func probeHost() (float64, error) { return hostRef.probe() }

// refScale is the factor that turns a time measured after a probe of
// probe seconds into a time at the reference speed.
func refScale(probe float64) float64 { return probeRef / probe }
