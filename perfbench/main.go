// Command perfbench is the repository benchmark. It drives the programs
// operators run — a hotserve subprocess over HTTP and the hotforecast
// sweep CLI — with load generated from --seed, checks their outputs
// against an in-process oracle, and prints every metric by name and unit.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"setup_s": {"value": 7.1, "unit": "s"}, ...}}
//
// With --trace 0 the metrics are the end-to-end set; with --trace 1 the
// workload is rerun with spans around each layer's calls and the metrics
// are the per-layer set. README.md in this directory documents the
// workloads, metrics and how to run it; run.sh builds the programs and
// this program from source first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// The benchmark network: the hotserve defaults and the paper's 18 weeks.
// It is fixed; --seed varies the load, not the data.
const (
	netSectors = 600
	netWeeks   = 18
	netSeed    = 2
)

// conns bounds the load generator's connections (and sweep workers) to the
// 2 cores of the reference host.
const conns = 2

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runner carries one invocation's settings.
type runner struct {
	workload string
	seed     uint64
	seconds  float64
	tr       *tracer // nil unless --trace 1
	bin      string  // directory holding hotserve and hotforecast
	work     string  // scratch directory for registries, logs and traces
	res      result
	// e2eM and layerM collect the end-to-end and per-layer metrics; the
	// result line reports one set, chosen by --trace.
	e2eM, layerM map[string]metric
}

var workloads = map[string]func(*runner) error{
	"serve-latest": runServeLatest,
	"serve-replay": runServeReplay,
	"sweep":        runSweep,
}

func main() {
	var (
		workload = flag.String("workload", "", "serve-latest | serve-replay | sweep")
		seed     = flag.Uint64("seed", 1, "workload seed: the load and the oracle sample derive from it")
		seconds  = flag.Float64("seconds", 10, "measured seconds per run")
		trace    = flag.Int("trace", 0, "1 reruns the workload with spans and prints the per-layer metrics")
		bin      = flag.String("bin", ".bench_build/bin", "directory holding the built hotserve and hotforecast")
		work     = flag.String("work", ".bench_build/work", "scratch directory (registries, logs, traces)")
		refAddr  = flag.String("ref-server", "", "serve the host-speed reference on this address and nothing else (perfbench starts this itself)")
	)
	flag.Parse()
	if *refAddr != "" {
		fail(serveRef(*refAddr))
	}
	fn, ok := workloads[*workload]
	if !ok {
		fail(fmt.Errorf("unknown --workload %q (serve-latest | serve-replay | sweep)", *workload))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fail(fmt.Errorf("need --seconds > 0 and --trace 0|1"))
	}
	for _, prog := range []string{"hotserve", "hotforecast"} {
		if _, err := os.Stat(filepath.Join(*bin, prog)); err != nil {
			fail(fmt.Errorf("missing %s in %s: build it first (run.sh does)", prog, *bin))
		}
	}
	r := &runner{workload: *workload, seed: *seed, seconds: *seconds, bin: *bin,
		work: filepath.Join(*work, fmt.Sprintf("%s-%d-%d", *workload, *seed, os.Getpid())),
		res:  result{Correct: true}, e2eM: map[string]metric{}, layerM: map[string]metric{}}
	if *trace == 1 {
		r.tr = newTracer()
	}
	if err := os.MkdirAll(r.work, 0o755); err != nil {
		fail(err)
	}
	var err error
	if hostRef, err = startRef(); err != nil {
		fail(err)
	}
	env, _ := json.Marshal(stampEnv(*workload, *seed))
	fmt.Printf("env %s\n", env)

	err = fn(r)
	if err == nil && r.tr != nil {
		err = r.finishTrace()
	}
	os.RemoveAll(filepath.Join(r.work, "reg")) // registries are large and disposable
	if err == nil {
		r.res.Metrics, err = r.finalMetrics()
	}
	if err != nil {
		fail(err)
	}
	r.printMetrics()
	line, err := json.Marshal(r.res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
	hostRef.stop()
	if !r.res.Correct {
		os.Exit(1)
	}
}

// finishTrace writes the spans and prints the self-time table.
func (r *runner) finishTrace() error {
	path := filepath.Join(r.work, "spans.jsonl")
	if err := r.tr.WriteJSONL(path); err != nil {
		return err
	}
	fmt.Printf("trace: %d spans written to %s\n", len(r.tr.Spans()), path)
	printLayers(summarize(r.tr.Spans()))
	return nil
}

// printMetrics prints every metric the run measured by name and unit; a
// traced run's end-to-end figures are marked, since spans slow them.
func (r *runner) printMetrics() {
	show := func(kind string, ms map[string]metric) {
		names := make([]string, 0, len(ms))
		for n := range ms {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("%s %-36s %16.6g %s\n", kind, n, ms[n].Value, ms[n].Unit)
		}
	}
	if r.tr == nil {
		show("metric", r.e2eM)
		return
	}
	show("traced-e2e", r.e2eM)
	show("layer", r.res.Metrics)
}

func fail(err error) {
	if hostRef != nil {
		hostRef.stop()
	}
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

// dur converts the run's measured seconds to a Duration.
func (r *runner) dur(share float64) time.Duration {
	return time.Duration(r.seconds * share * float64(time.Second))
}
