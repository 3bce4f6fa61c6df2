package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/forecast"
	"repro/internal/obs"
)

// The paper's evaluation grid: Average, RF-F1 and GBT-F1 over five days
// ten apart, h ∈ {1, 7, 14}, w = 7, be-hot.
var (
	sweepModels = []string{"Average", "RF-F1", "GBT-F1"}
	sweepHs     = []int{1, 7, 14}
)

// sweepTs is the grid's five forecast days, {60, 70, 80, 90, 100} shifted
// by a seed-chosen 0..9 days; every shift keeps t+14 inside the 126-day
// grid and a full training history before t.
func sweepTs(seed uint64) []int {
	shift := int(seed % 10)
	ts := make([]int, 5)
	for i := range ts {
		ts[i] = 60 + 10*i + shift
	}
	return ts
}

// sweepPoints is the number of (model, t, h) records a grid yields.
var sweepPoints = len(sweepModels) * 5 * len(sweepHs)

// setupProbes is how many extra hotforecast launches time the pipeline
// set-up (each runs a one-point Average sweep and exits); with the grid
// runs' own launches they give setup_s's median.
const setupProbes = 2

func netArgs() []string {
	return []string{"-sectors", strconv.Itoa(netSectors), "-weeks", strconv.Itoa(netWeeks), "-seed", strconv.Itoa(netSeed)}
}

func intsArg(xs []int) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = strconv.Itoa(x)
	}
	return strings.Join(s, ",")
}

// gridRun is one hotforecast invocation as seen from outside;
// runHotforecast scales its setup, records and cpu to the reference speed.
type gridRun struct {
	setup   float64   // launch to the "pipeline:" line, seconds
	sectors int       // sectors served after the missing-data filter
	records []float64 // each record's arrival after the pipeline line, seconds
	rows    [][]string
	cpu     float64 // user + system seconds
	rssMB   float64 // peak resident set
}

// runHotforecast launches hotforecast with args plus -csv /dev/stdout, so
// every record reaches this process the moment its grid point completes,
// and timestamps each line. It probes the host before and after, and
// scales the launch's times to the reference speed (hostspeed.go).
func (r *runner) runHotforecast(args []string) (*gridRun, error) {
	before, err := probeHost()
	if err != nil {
		return nil, err
	}
	g, err := r.launchHotforecast(args)
	if err != nil {
		return nil, err
	}
	after, err := probeHost()
	if err != nil {
		return nil, err
	}
	sc := refScale((before + after) / 2)
	g.setup *= sc
	g.cpu *= sc
	for i := range g.records {
		g.records[i] *= sc
	}
	return g, nil
}

func (r *runner) launchHotforecast(args []string) (*gridRun, error) {
	cmd := exec.Command(filepath.Join(r.bin, "hotforecast"), append(append(netArgs(), args...), "-csv", "/dev/stdout")...)
	cmd.SysProcAttr = dieWithParent()
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	var stderr strings.Builder
	cmd.Stderr = &stderr
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start hotforecast: %w", err)
	}
	g := &gridRun{setup: -1}
	var ready time.Time
	var parseErr error
	sc := bufio.NewScanner(stdout)
	header := strings.Join(forecast.CSVHeader(), ",")
	for sc.Scan() {
		now, line := time.Now(), sc.Text()
		switch {
		case parseErr != nil:
		case strings.HasPrefix(line, "pipeline:"):
			ready = now
			g.setup = now.Sub(t0).Seconds()
			if _, err := fmt.Sscanf(line, "pipeline: %d sectors", &g.sectors); err != nil {
				parseErr = fmt.Errorf("bad pipeline line %q: %w", line, err)
			}
		case line == header || ready.IsZero():
		case strings.Count(line, ",") == len(forecast.CSVHeader())-1:
			row, err := csv.NewReader(strings.NewReader(line)).Read()
			if err != nil {
				parseErr = fmt.Errorf("bad record %q: %w", line, err)
				continue
			}
			g.rows = append(g.rows, row)
			g.records = append(g.records, now.Sub(ready).Seconds())
		}
	}
	_, _ = io.Copy(io.Discard, stdout)
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("hotforecast: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	switch {
	case parseErr != nil:
		return nil, parseErr
	case g.setup < 0:
		return nil, fmt.Errorf("hotforecast printed no pipeline line")
	case len(g.rows) == 0:
		return nil, fmt.Errorf("hotforecast printed no records")
	}
	ru := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	g.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	g.rssMB = float64(ru.Maxrss) / 1024 // KiB on Linux
	return g, nil
}

// runSweep: the paper's evaluation grid through the hotforecast CLI with
// two workers, as many whole grids as fit in --seconds (at least one).
func runSweep(r *runner) error {
	ts := sweepTs(r.seed)
	var setups []float64
	for i := 0; i < setupProbes; i++ {
		g, err := r.runHotforecast([]string{"-models", "Average", "-t", strconv.Itoa(ts[0]), "-h", "1", "-w", strconv.Itoa(window), "-workers", strconv.Itoa(conns)})
		if err != nil {
			return fmt.Errorf("setup probe: %w", err)
		}
		setups = append(setups, g.setup)
	}
	args := []string{"-models", strings.Join(sweepModels, ","), "-t", intsArg(ts), "-h", intsArg(sweepHs),
		"-w", strconv.Itoa(window), "-target", "hot", "-workers", strconv.Itoa(conns)}
	metricsPath := filepath.Join(r.work, "hotforecast.metrics")
	if r.tr != nil {
		args = append(args, "-metrics", metricsPath)
	}
	var lat []float64
	var points int
	var gridSecs, cpu, rss float64
	var sectors int
	// Grids repeat while another one still fits in --seconds; the first
	// always runs, even when it alone takes longer.
	start, last := time.Now(), 0.0
	for grids := 0; grids == 0 || time.Since(start).Seconds()+last <= r.seconds; grids++ {
		g0 := time.Now()
		sp := r.tr.Start("hotforecast.sweep", nil)
		g, err := r.runHotforecast(args)
		sp.End()
		if err != nil {
			return err
		}
		r.res.Attempted += int64(sweepPoints)
		r.res.Failed += int64(sweepPoints - len(g.rows))
		setups = append(setups, g.setup)
		lat = append(lat, g.records...)
		points += len(g.rows)
		gridSecs += g.records[len(g.records)-1]
		cpu += g.cpu
		rss = max(rss, g.rssMB)
		sectors = g.sectors
		if err := checkSweep(g.rows, ts); err != nil {
			r.res.Correct = false
			fmt.Printf("SWEEP CHECK FAILED: %v\n", err)
		}
		fmt.Printf("grid %d: t=%v h=%v, %d records in %.2fs after a %.2fs set-up (at reference speed), digest %s\n",
			grids+1, ts, sweepHs, len(g.rows), g.records[len(g.records)-1], g.setup, digest(g.rows))
		last = time.Since(g0).Seconds()
	}
	fmt.Printf("setup: %d launches, seconds at reference speed %.3f\n", len(setups), setups)
	r.e2e("setup_s", "s", median(setups))
	r.e2e("rankings_per_s", "1/s", float64(points)/gridSecs)
	if err := r.latencyMetrics(lat, lat, sweepPoints); err != nil {
		return err
	}
	r.e2e("cpu_ms_per_ranking", "ms", cpu*1e3/float64(points))
	r.e2e("peak_rss_mb", "MB", rss)
	fmt.Printf("sweep_points_per_s %.4f 1/s\n", float64(points)/gridSecs)
	if r.tr == nil {
		return nil
	}
	if err := r.sweepProcessLayers(metricsPath, sectors); err != nil {
		return err
	}
	return r.traceSweepInProcess(ts[0])
}

// checkSweep asserts every record is finite and that both learned models
// beat random (mean lift over t above 1) at every horizon.
func checkSweep(rows [][]string, ts []int) error {
	if len(rows) != sweepPoints {
		return fmt.Errorf("%d records, want %d", len(rows), sweepPoints)
	}
	lift := map[string]float64{}
	for _, row := range rows {
		for _, col := range []int{5, 6, 7} { // psi, psi_random, lift
			v, err := strconv.ParseFloat(row[col], 64)
			if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("record %v: %s is not finite", row, forecast.CSVHeader()[col])
			}
		}
		l, _ := strconv.ParseFloat(row[7], 64)
		lift[row[0]+"/h="+row[3]] += l / float64(len(ts))
	}
	for _, m := range []string{"RF-F1", "GBT-F1"} {
		for _, h := range sweepHs {
			key := fmt.Sprintf("%s/h=%d", m, h)
			if lift[key] <= 1 {
				return fmt.Errorf("%s mean lift %.3f is not above random", key, lift[key])
			}
		}
	}
	return nil
}

// digest is a short hash of the records in emission order: the same grid
// on the same data must print the same digest on every run.
func digest(rows [][]string) string {
	h := sha256.New()
	for _, row := range rows {
		fmt.Fprintln(h, strings.Join(row, ","))
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// sweepProcessLayers reads the grid process's own series, dumped at exit
// by hotforecast -metrics.
func (r *runner) sweepProcessLayers(path string, sectors int) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	s, err := obs.ParseText(string(raw))
	if err != nil {
		return err
	}
	dl := delta{before: obs.Scrape{}, after: s}
	fetch := dl.hist("forecast_feature_fetch_seconds")
	r.layer("forecast.feature_fetch_s", "s", fetch.Sum)
	r.layer("forecast.feature_fetch_ms_p50", "ms", p50(fetch)*1e3)
	desc := dl.hist("forecast_descend_seconds")
	r.layer("forecast.descend_ns_per_row", "ns", ratio(desc.Sum*1e9, float64(desc.Count)*float64(sectors)))
	r.cacheLayers(dl)
	hits, misses := dl.counter("bytelru_hits_total", cache("models")), dl.counter("bytelru_misses_total", cache("models"))
	r.layer("modelcache.hit_ratio", "ratio", ratio(hits, hits+misses))
	return nil
}

// traceSweepInProcess times the sweep's layers through their public
// functions on one grid day: for each learned model and horizon, the
// binned training matrix, the fit, the feature build, Predict and TopK.
// It runs the points once untraced and once traced, each on a fresh
// pipeline, and reports the difference as the tracing overhead.
func (r *runner) traceSweepInProcess(t int) error {
	tr := r.tr
	var rates [2]float64
	for pass := range rates {
		r.tr = nil
		if pass == 1 {
			r.tr = tr
		}
		var p *core.Pipeline
		var err error
		r.tr.traced("simnet.generate", nil, func() {
			p, err = core.NewPipeline(core.Config{Seed: netSeed, Sectors: netSectors, Weeks: netWeeks})
		})
		if err != nil {
			return err
		}
		rs := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
		var allocs, cycles uint64
		t0 := time.Now()
		n := 0
		for _, model := range []string{"RF-F1", "GBT-F1"} {
			for _, h := range sweepHs {
				if err := r.sweepPoint(p, model, t, h, rs, &allocs, &cycles); err != nil {
					return err
				}
				n++
			}
		}
		rates[pass] = float64(n) / time.Since(t0).Seconds()
		if pass == 1 {
			r.layer("runtime.alloc_bytes_per_ranking", "bytes", float64(allocs)/float64(n))
			r.layer("runtime.gc_cycles", "count", float64(cycles))
		}
	}
	r.layer("trace.overhead_pct", "%", (1-rates[1]/rates[0])*100)
	fmt.Printf("tracing overhead: %.3f points/s untraced, %.3f traced (in-process, t=%d)\n", rates[0], rates[1], t)
	return nil
}

func (r *runner) sweepPoint(p *core.Pipeline, model string, t, h int, rs []metrics.Sample, allocs, cycles *uint64) error {
	root := r.tr.Start("sweep.point", nil)
	defer root.End()
	var err error
	r.tr.traced("forecast.Context.BinnedTrainingMatrix", root, func() {
		_, err = p.Ctx.BinnedTrainingMatrix(features.Percentiles{}, t, h, window)
	})
	if err != nil {
		return err
	}
	var tr forecast.Trained
	r.tr.traced("core.Pipeline.Train:"+model, root, func() {
		tr, err = p.Train(core.ModelKind(model), forecast.BeHot, t, h, window)
	})
	if err != nil {
		return err
	}
	r.tr.traced("features.BuildAllSectors", root, func() {
		_, _, err = features.BuildAllSectors(p.Ctx.View, features.Percentiles{}, t, window)
	})
	if err != nil {
		return err
	}
	metrics.Read(rs)
	a0, c0 := rs[0].Value.Uint64(), rs[1].Value.Uint64()
	var scores []float64
	r.tr.traced("core.Pipeline.Predict", root, func() { scores, err = p.Predict(tr, t, window) })
	if err != nil {
		return err
	}
	r.tr.traced("core.TopK", root, func() { _ = core.TopK(scores, topK) })
	metrics.Read(rs)
	*allocs += rs[0].Value.Uint64() - a0
	*cycles += rs[1].Value.Uint64() - c0
	return nil
}
