package main

import (
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/forecast"
	"repro/internal/registry"
)

// The served tasks: RF-F1 (be-hot) and GBT-F1 (become-hot) at h=3, w=7,
// trained at day trainT and published at set-up.
var servedArtifacts = []artifactRef{{Model: "RF-F1", Target: "hot"}, {Model: "GBT-F1", Target: "become"}}

const (
	trainT    = 120
	horizon   = 3
	window    = 7
	topK      = 10
	batchSize = 8

	// setupReps is how many times a serving run sets the whole stack up
	// (generate, train, publish, launch, first healthy /healthz); setup_s
	// is the median. Only the last deployment carries the load.
	setupReps = 3

	// openRate is serve-latest's open-loop arrival rate in requests/s:
	// 27–40% of the closed-loop capacity measured on the reference host,
	// whose speed swings enough that half its fast-phase capacity would
	// queue in its slow phases (see README.md).
	openRate = 200
	// maxLagP99 bounds how late the open-loop generator may send; a run
	// whose send-lag p99 exceeds it is invalid, not reported.
	maxLagP99 = 50 * time.Millisecond

	// The segment length of each workload's phases (see segmented): short
	// enough that the host probes either side of a segment bracket its
	// speed, long enough that serve-replay's ~0.6 s batches rarely leave a
	// connection idle at a segment's end.
	latestSegment = 2 * time.Second
	replaySegment = 4 * time.Second
)

// deployment is one set-up serving stack: the in-process pipeline that
// trained and published the artifacts (it doubles as the oracle), the
// registry, and the hotserve subprocess serving it.
type deployment struct {
	p    *core.Pipeline
	reg  *registry.Registry
	arts []forecast.Trained
	srv  *server
}

// deploy sets up one serving stack and returns it with its set-up time.
func (r *runner) deploy(rep, maxInflight int) (*deployment, float64, error) {
	t0 := time.Now()
	root := r.tr.Start("setup", nil)
	defer root.End()
	d := &deployment{}
	var err error
	r.tr.traced("simnet.generate", root, func() {
		d.p, err = core.NewPipeline(core.Config{Seed: netSeed, Sectors: netSectors, Weeks: netWeeks})
	})
	if err != nil {
		return nil, 0, err
	}
	if d.reg, err = registry.Open(filepath.Join(r.work, "reg", strconv.Itoa(rep)), -1); err != nil {
		return nil, 0, err
	}
	train := r.tr.Start("setup.train", root)
	for _, a := range servedArtifacts {
		tgt := forecast.BeHot
		if a.Target == "become" {
			tgt = forecast.BecomeHot
		}
		var tr forecast.Trained
		r.tr.traced("core.Pipeline.Train:"+a.Model, train, func() {
			tr, err = d.p.Train(core.ModelKind(a.Model), tgt, trainT, horizon, window)
		})
		if err != nil {
			return nil, 0, fmt.Errorf("train %s: %w", a.Model, err)
		}
		r.tr.traced("registry.Publish", train, func() { _, err = d.reg.Publish(tr) })
		if err != nil {
			return nil, 0, err
		}
		d.arts = append(d.arts, tr)
	}
	train.End()
	ready := r.tr.Start("setup.ready", root)
	d.srv, err = startServer(r.bin, d.reg.Dir(), filepath.Join(r.work, fmt.Sprintf("hotserve-%d.log", rep)), maxInflight)
	ready.End()
	if err != nil {
		return nil, 0, err
	}
	return d, time.Since(t0).Seconds(), nil
}

// deploySetups runs setupReps set-ups, stops all but the last, and reports
// setup_s as their median.
func (r *runner) deploySetups(maxInflight int) (*deployment, error) {
	var times, ref []float64
	var d *deployment
	for rep := 0; rep < setupReps; rep++ {
		if d != nil {
			if err := d.srv.stop(); err != nil {
				return nil, err
			}
		}
		runtime.GC() // the previous set-up's network is garbage now
		before, err := probeHost()
		if err != nil {
			return nil, err
		}
		var s float64
		if d, s, err = r.deploy(rep, maxInflight); err != nil {
			return nil, err
		}
		after, err := probeHost()
		if err != nil {
			return nil, err
		}
		times = append(times, s)
		ref = append(ref, s*refScale((before+after)/2))
	}
	fmt.Printf("setup: %d set-ups, seconds %.3f, at reference speed %.3f\n", len(times), times, ref)
	r.e2e("setup_s", "s", median(ref))
	if r.tr != nil {
		r.traceSetupLayers(d)
	}
	return d, nil
}

// traceSetupLayers times the binned training matrix of the served task and
// reads the pipeline's model cache.
func (r *runner) traceSetupLayers(d *deployment) {
	r.tr.traced("forecast.Context.BinnedTrainingMatrix", nil, func() {
		_, _ = d.p.Ctx.BinnedTrainingMatrix(features.Percentiles{}, trainT, horizon, window)
	})
	st := d.p.Ctx.ModelCache().Stats()
	r.layer("modelcache.hit_ratio", "ratio", ratio(float64(st.Hits), float64(st.Hits+st.Misses)))
}

// single sends one GET /forecast per request from the connection's
// generator.
func (d *deployment) single(gens []*queryGen) request {
	return func(conn int) (int, []query, []ranking, error) {
		q := gens[conn].next()
		rk, err := d.srv.forecast(q)
		if err != nil {
			return 0, nil, nil, err
		}
		return 1, []query{q}, []ranking{*rk}, nil
	}
}

// batched sends one POST /forecast/batch of batchSize queries per request.
func (d *deployment) batched(gens []*queryGen) request {
	return func(conn int) (int, []query, []ranking, error) {
		qs := gens[conn].batch(batchSize)
		rs, errs, err := d.srv.batch(qs)
		if err != nil {
			return 0, nil, nil, err
		}
		n := 0
		for _, e := range errs {
			if e != nil {
				return n, nil, nil, e
			}
			n++
		}
		return n, qs, rs, nil
	}
}

func connGens(seed, base uint64, tLo, tHi int) []*queryGen {
	gens := make([]*queryGen, conns)
	for c := range gens {
		gens[c] = newQueryGen(seed, base+uint64(c), servedArtifacts, tLo, tHi, topK)
	}
	return gens
}

// runServeLatest: dashboards polling today's hot spots. An open-loop phase
// at openRate with a publisher republishing and reloading, then a
// closed-loop capacity phase, all for the newest day.
func runServeLatest(r *runner) error {
	d, err := r.deploySetups(2 * conns)
	if err != nil {
		return err
	}
	defer d.srv.stop()
	latest := d.p.Days() - 1
	for _, a := range servedArtifacts { // first touch builds the day's features
		if _, err := d.srv.forecast(query{Model: a.Model, Target: a.Target, T: latest, K: topK}); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}

	m, err := r.measure(d, func(open, closed *phase) ([]float64, error) {
		pub := r.publisher(d)
		if err := openLoop(open, conns, openRate, r.dur(0.5), latestSegment, r.seed, d.srv.cpuSeconds, pub.between,
			d.single(connGens(r.seed, 100, latest, latest)), r.tr, "http.GET /forecast"); err != nil {
			return nil, err
		}
		open.print()
		if err := closedLoop(closed, conns, r.dur(0.5), latestSegment, r.seed, d.srv.cpuSeconds,
			d.single(connGens(r.seed, 200, latest, latest)), r.tr, "http.GET /forecast"); err != nil {
			return nil, err
		}
		closed.print()
		return pub.lat, nil
	})
	if err != nil {
		return err
	}

	// The median is what a dashboard sees at a steady rate, timed from the
	// due send time. The tail comes from the closed loop: its ~7000 samples
	// put ~70 beyond p99 where the open loop's 2400 put 24, few enough that
	// the open-loop p99 counted how many host stalls landed in the window
	// (README.md, "End-to-end metrics").
	if err := r.latencies(m.open, m.closed, latestTailPlanned); err != nil {
		return err
	}
	lag := quantile(append([]float64(nil), m.open.lag...), 0.99)
	fmt.Printf("open loop: rate %d/s, send-lag p99 %.3f ms (bound %v)\n", openRate, lag*1e3, maxLagP99)
	if lag > maxLagP99.Seconds() {
		return fmt.Errorf("invalid run: open-loop send-lag p99 %.1f ms exceeds the %v bound; the generator could not keep its schedule", lag*1e3, maxLagP99)
	}
	r.e2e("rankings_per_s", "1/s", m.closed.refRate())
	r.layer("hotserve.reload_ms_p50", "ms", median(m.reloads)*1e3)
	fmt.Printf("reload_p50_ms %.3f ms over %d reloads\n", median(m.reloads)*1e3, len(m.reloads))

	if r.tr != nil {
		r.replayInProcess(d, connGens(r.seed, 200, latest, latest)[0], 300, 2*time.Second)
	}
	return r.finishServe(d, m)
}

// runServeReplay: analysts backfilling history. A closed loop of
// /forecast/batch requests whose queries draw (artifact, t) uniformly from
// every servable day, after a warm-up that fills the feature cache.
func runServeReplay(r *runner) error {
	d, err := r.deploySetups(conns * batchSize)
	if err != nil {
		return err
	}
	defer d.srv.stop()
	tLo, tHi := window, d.p.Days()-1
	if err := r.warmFeatureCache(d, connGens(r.seed, 300, tLo, tHi)); err != nil {
		return err
	}
	m, err := r.measure(d, func(_, closed *phase) ([]float64, error) {
		if err := closedLoop(closed, conns, r.dur(1), replaySegment, r.seed, d.srv.cpuSeconds,
			d.batched(connGens(r.seed, 400, tLo, tHi)), r.tr, "http.POST /forecast/batch"); err != nil {
			return nil, err
		}
		closed.print()
		return nil, nil
	})
	if err != nil {
		return err
	}
	if err := r.latencies(m.closed, m.closed, replayMinBatches); err != nil {
		return err
	}
	r.e2e("rankings_per_s", "1/s", m.closed.refRate())
	if r.tr != nil {
		r.replayInProcess(d, connGens(r.seed, 400, tLo, tHi)[0], 24, 4*time.Second)
	}
	return r.finishServe(d, m)
}

// The fewest latency samples each workload's tail phase is planned to
// collect on the reference host: serve-latest's closed loop and
// serve-replay's batches. The tail percentile is the highest that count
// supports, so it is fixed per workload.
const (
	latestTailPlanned = 5000
	replayMinBatches  = 45
)

// warmFeatureCache sends batches until the server's feature cache holds at
// least 90% of its budget, so the measured phase sees the steady-state
// hit ratio rather than first-touch builds.
func (r *runner) warmFeatureCache(d *deployment, gens []*queryGen) error {
	warm := &phase{name: "warm-up"}
	start := time.Now()
	do := d.batched(gens)
	for time.Since(start) < 60*time.Second {
		s, err := scrape(d.srv.ctl, d.srv.base)
		if err != nil {
			return err
		}
		used, _ := s.Value("bytelru_bytes", cache("features"))
		budget, _ := s.Value("bytelru_max_bytes", cache("features"))
		if budget > 0 && used >= 0.9*budget {
			warm.elapsed = time.Since(start)
			warm.print()
			return nil
		}
		var wg sync.WaitGroup
		for c := 0; c < conns; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				t0 := time.Now()
				n, _, _, err := do(c)
				warm.record(time.Since(t0).Seconds(), -1, err, n, 0)
			}(c)
		}
		wg.Wait()
		if warm.failed.Load() > 0 {
			return fmt.Errorf("warm-up failed: %v", warm.firstErr)
		}
	}
	return fmt.Errorf("feature cache did not fill within 60s")
}

// measurement is what a serving workload's measured phases leave behind.
type measurement struct {
	open, closed *phase
	reloads      []float64
	delta        delta
	depthMax     float64
}

// measure runs the workload's phases between two /metrics scrapes. In a
// traced run it first runs the phases once untraced, to report the tracing
// overhead from the closed loops, and samples the pool queue depth while
// the traced phases run.
func (r *runner) measure(d *deployment, phases func(open, closed *phase) ([]float64, error)) (*measurement, error) {
	m := &measurement{open: &phase{name: "open-loop"}, closed: &phase{name: "closed-loop"}}
	runtime.GC() // collect set-up garbage before the clock runs, not during it
	var untraced float64
	if r.tr != nil {
		tr := r.tr
		r.tr = nil
		p := &phase{name: "untraced"}
		if _, err := phases(&phase{name: "untraced-open"}, p); err != nil {
			return nil, err
		}
		r.tr = tr
		untraced = p.refRate()
	}
	before, err := scrape(d.srv.ctl, d.srv.base)
	if err != nil {
		return nil, err
	}
	stopDepth := make(chan struct{})
	depthDone := make(chan float64, 1)
	go func() { depthDone <- r.sampleQueueDepth(d, stopDepth) }()
	m.reloads, err = phases(m.open, m.closed)
	close(stopDepth)
	m.depthMax = <-depthDone
	if err != nil {
		return nil, err
	}
	after, err := scrape(d.srv.ctl, d.srv.base)
	if err != nil {
		return nil, err
	}
	m.delta = delta{before: before, after: after}
	if r.tr != nil {
		traced := m.closed.refRate()
		r.layer("trace.overhead_pct", "%", (1-traced/untraced)*100)
		fmt.Printf("tracing overhead: %.0f rankings/s untraced, %.0f traced\n", untraced, traced)
	}
	return m, nil
}

// sampleQueueDepth polls parallel_queue_depth every 100 ms in traced runs
// and returns the highest value seen.
func (r *runner) sampleQueueDepth(d *deployment, stop chan struct{}) float64 {
	if r.tr == nil {
		return 0
	}
	best := 0.0
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return best
		case <-tick.C:
			if s, err := scrape(d.srv.ctl, d.srv.base); err == nil {
				v, _ := s.Value("parallel_queue_depth")
				best = max(best, v)
			}
		}
	}
}

// publisher republishes a served artifact as a new version through
// registry.Publish and forces POST /reload before every open-loop segment
// but the first, after the segment's host probe: a reload every
// latestSegment. lat collects each reload's latency in seconds.
type publisher struct {
	r   *runner
	d   *deployment
	rng *rand.Rand
	lat []float64
}

func (r *runner) publisher(d *deployment) *publisher {
	return &publisher{r: r, d: d, rng: rand.New(rand.NewPCG(r.seed, 500))}
}

func (pb *publisher) between(k int) error {
	if k == 0 {
		return nil
	}
	tr := pb.d.arts[pb.rng.IntN(len(pb.d.arts))]
	var err error
	pb.r.tr.traced("registry.Publish", nil, func() { _, err = pb.d.reg.Publish(tr) })
	if err != nil {
		return err
	}
	sp := pb.r.tr.Start("http.POST /reload", nil)
	t0 := time.Now()
	err = pb.d.srv.reload()
	pb.lat = append(pb.lat, time.Since(t0).Seconds())
	sp.End()
	if err != nil {
		return fmt.Errorf("reload: %w", err)
	}
	return nil
}

// latencies reports the median of p50s' samples and the workload's tail of
// tails': the highest percentile that planned samples leave at least
// minBeyond samples beyond, both at the reference speed. A run that
// collected too few samples for that tail is invalid.
func (r *runner) latencies(p50s, tails *phase, planned int) error {
	return r.latencyMetrics(p50s.refLat(), tails.refLat(), planned)
}

func (r *runner) latencyMetrics(p50s, tails []float64, planned int) error {
	q, ok := tailQuantile(planned)
	if !ok || beyond(len(tails), q) < minBeyond {
		return fmt.Errorf("invalid run: %d latency samples leave %d beyond %s (need %d)",
			len(tails), beyond(len(tails), q), percentName(q), minBeyond)
	}
	p50v := median(append([]float64(nil), p50s...)) * 1e3
	tail := quantile(append([]float64(nil), tails...), q) * 1e3
	fmt.Printf("latency at reference speed: p50 %.3f ms (%d samples), tail %s %.3f ms (%d samples, %d beyond)\n",
		p50v, len(p50s), percentName(q), tail, len(tails), beyond(len(tails), q))
	r.e2e("latency_p50_ms", "ms", p50v)
	r.e2e("latency_tail_ms", "ms", tail)
	return nil
}

// finishServe checks the sampled rankings against the oracle, then reads
// CPU, memory and the per-layer series.
func (r *runner) finishServe(d *deployment, m *measurement) error {
	phases := []*phase{m.open, m.closed}
	var samples []sample
	for _, p := range phases {
		r.res.Attempted += p.sent.Load()
		r.res.Failed += p.failed.Load()
		samples = append(samples, p.samples...)
	}
	n, err := oracle{p: d.p, reg: d.reg}.check(samples)
	if err != nil {
		r.res.Correct = false
		fmt.Printf("ORACLE MISMATCH: %v\n", err)
	} else {
		fmt.Printf("oracle: %d served rankings match in-process Predict+TopK bit for bit\n", n)
	}
	if n == 0 && err == nil {
		return fmt.Errorf("oracle sampled no rankings")
	}

	rankings := m.open.rankings.Load() + m.closed.rankings.Load()
	rawO, refO := m.open.cpuSeconds()
	rawC, refC := m.closed.cpuSeconds()
	fmt.Printf("server CPU: %.3f s raw, %.3f s at reference speed, over %d rankings\n", rawO+rawC, refO+refC, rankings)
	r.e2e("cpu_ms_per_ranking", "ms", (refO+refC)*1e3/float64(rankings))
	rss, err := d.srv.peakRSSMB()
	if err != nil {
		return err
	}
	r.e2e("peak_rss_mb", "MB", rss)
	r.serverLayers(d, m)
	return nil
}

// serverLayers derives the per-layer metrics the server exports over the
// measured phases.
func (r *runner) serverLayers(d *deployment, m *measurement) {
	dl := m.delta
	stageMS := func(s string) float64 { return p50(dl.hist("hotserve_stage_seconds", stage(s))) * 1e3 }
	req := dl.hist("hotserve_request_seconds", route("/forecast"))
	breq := dl.hist("hotserve_request_seconds", route("/forecast/batch"))
	// A batch runs its queries' lookup, predict and rank stages in
	// parallel, so the predict share is taken of the summed stage time,
	// not of the request time.
	var stages float64
	for _, s := range []string{"admission", "lookup", "predict", "rank", "encode"} {
		stages += dl.hist("hotserve_stage_seconds", stage(s)).Sum
		r.layer("hotserve."+s+"_ms_p50", "ms", stageMS(s))
	}
	pred := dl.hist("hotserve_stage_seconds", stage("predict"))
	r.layer("hotserve.predict_share", "ratio", ratio(pred.Sum, stages))
	// The edge is what the client waits beyond the server's own request
	// time: HTTP, loopback and decoding. Means, because the server's
	// request histogram is too coarse to difference two medians of a few
	// milliseconds; its sum is exact.
	served := req
	if breq.Count > 0 {
		served = breq
	}
	var client float64
	for _, l := range m.closed.lat {
		client += l
	}
	r.layer("hotserve.edge_ms_mean", "ms", (client/float64(len(m.closed.lat))-ratio(served.Sum, float64(served.Count)))*1e3)

	desc := dl.hist("forecast_descend_seconds")
	r.layer("forecast.descend_ns_per_row", "ns", ratio(desc.Sum*1e9, float64(desc.Count)*float64(d.p.Sectors())))
	fetch := dl.hist("forecast_feature_fetch_seconds")
	r.layer("forecast.feature_fetch_s", "s", fetch.Sum)
	r.layer("forecast.feature_fetch_ms_p50", "ms", p50(fetch)*1e3)
	r.cacheLayers(dl)
	r.layer("registry.load_ms_p50", "ms", p50(dl.hist("registry_load_seconds"))*1e3)
	r.layer("hotserve.reloads", "count", dl.counter("hotserve_reloads_total"))
	r.layer("hotserve.sheds", "count", dl.counter("hotserve_sheds_total", route("/forecast"))+
		dl.counter("hotserve_sheds_total", route("/forecast/batch")))
	r.layer("parallel.queue_depth_max", "count", m.depthMax)
	fmt.Printf("predict stage %.3f s of %.3f s summed stage time; feature fetch %.3f s; feature-cache hit ratio %.3f\n",
		pred.Sum, stages, fetch.Sum, r.layerM["featcache.hit_ratio"].Value)
}

// cacheLayers reads the feature cache's counters over a phase.
func (r *runner) cacheLayers(dl delta) {
	hits := dl.counter("bytelru_hits_total", cache("features"))
	misses := dl.counter("bytelru_misses_total", cache("features"))
	r.layer("featcache.hit_ratio", "ratio", ratio(hits, hits+misses))
	r.layer("featcache.misses", "count", misses)
	r.layer("featcache.evictions", "count", dl.counter("bytelru_evictions_total", cache("features")))
	r.layer("featcache.waits", "count", dl.counter("bytelru_waits_total", cache("features")))
	r.layer("featcache.bytes_mb", "MB", dl.gauge("bytelru_bytes", cache("features"))/(1<<20))
}

// replayInProcess replays a query stream through the layers' public
// functions with spans around each call: the feature build, Predict and
// TopK. It also reads runtime/metrics around Predict+TopK for the
// allocation and GC cost per ranking.
func (r *runner) replayInProcess(d *deployment, gen *queryGen, n int, budget time.Duration) {
	arts := map[string]forecast.Trained{}
	for _, tr := range d.arts {
		arts[tr.ModelName()+"/"+tr.Target().String()] = tr
	}
	rs := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	var allocs, cycles uint64
	deadline := time.Now().Add(budget)
	done := 0
	for ; done < n && time.Now().Before(deadline); done++ {
		q := gen.next()
		tr := arts[q.Model+"/"+targetName(q.Target)]
		root := r.tr.Start("replay.query", nil)
		if done < 5 {
			r.tr.traced("features.BuildAllSectors", root, func() {
				_, _, _ = features.BuildAllSectors(d.p.Ctx.View, features.Percentiles{}, q.T, window)
			})
		}
		metrics.Read(rs)
		a0, c0 := rs[0].Value.Uint64(), rs[1].Value.Uint64()
		var scores []float64
		r.tr.traced("core.Pipeline.Predict", root, func() { scores, _ = d.p.Predict(tr, q.T, window) })
		r.tr.traced("core.TopK", root, func() { _ = core.TopK(scores, q.K) })
		metrics.Read(rs)
		allocs += rs[0].Value.Uint64() - a0
		cycles += rs[1].Value.Uint64() - c0
		root.End()
	}
	r.layer("runtime.alloc_bytes_per_ranking", "bytes", float64(allocs)/float64(done))
	r.layer("runtime.gc_cycles", "count", float64(cycles))
	fmt.Printf("in-process replay: %d rankings\n", done)
}
