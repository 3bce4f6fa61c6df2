package main

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestTailQuantileLeavesTenBeyond(t *testing.T) {
	cases := []struct {
		n      int
		want   float64
		wantOK bool
	}{
		{10000, 0.999, true}, // exactly 10 beyond p99.9
		{9999, 0.99, true},   // 9 beyond p99.9 is too few
		{5000, 0.99, true},   // serve-latest's closed loop: 50 beyond
		{1000, 0.99, true},
		{999, 0.9, true},
		{100, 0.9, true},
		{45, 0.75, true}, // the sweep's grid: 11 beyond
		{40, 0.75, true},
		{39, 0.75, false},
		{0, 0.75, false},
	}
	for _, c := range cases {
		q, ok := tailQuantile(c.n)
		if q != c.want || ok != c.wantOK {
			t.Errorf("tailQuantile(%d) = %v, %v; want %v, %v", c.n, q, ok, c.want, c.wantOK)
		}
		if ok && beyond(c.n, q) < minBeyond {
			t.Errorf("tailQuantile(%d) = %v leaves only %d beyond", c.n, q, beyond(c.n, q))
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := quantile(xs, 0.75); got != 4 {
		t.Errorf("p75 = %v, want 4", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
}

func TestSelfTimeSubtractsChildCoverageOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Trace: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Trace: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Trace: 1, Name: "b", Start: 20, End: 50},  // overlaps a
		{ID: 4, Parent: 1, Trace: 1, Name: "c", Start: 90, End: 120}, // runs past root
		{ID: 5, Parent: 2, Trace: 1, Name: "leaf", Start: 12, End: 18},
	}
	self := selfTimes(spans)
	want := map[uint64]time.Duration{
		1: 100 - 40 - 10, // children cover [10,50) and [90,100)
		2: 20 - 6,
		3: 30,
		4: 30,
		5: 6,
	}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
	sums := summarize(spans)
	if sums[0].Name != "root" || sums[0].Self != 50 || sums[0].Count != 1 {
		t.Errorf("summarize orders by self time; got first %+v", sums[0])
	}
}

func TestTracerRecordsParentsAndSharedTrace(t *testing.T) {
	tr := newTracer()
	root := tr.Start("request", nil)
	tr.traced("child", root, func() {})
	root.End()
	other := tr.Start("request", nil)
	other.End()
	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	child, first, second := spans[0], spans[1], spans[2]
	if child.Parent != first.ID || child.Trace != first.Trace {
		t.Errorf("child %+v does not hang off root %+v", child, first)
	}
	if second.Trace == first.Trace {
		t.Errorf("two roots share trace id %d", first.Trace)
	}
	var none *tracer
	none.traced("ignored", none.Start("x", nil), func() {})
	if none.Spans() != nil {
		t.Error("a nil tracer recorded spans")
	}
}

// TestMetricsDeltaThroughObs renders a registry as /metrics text, parses
// it with internal/obs and checks the phase delta of a counter, a gauge
// and a histogram.
func TestMetricsDeltaThroughObs(t *testing.T) {
	reg := obs.NewRegistry()
	st := obs.Label{Key: "stage", Value: "predict"}
	h := reg.Histogram("hotserve_stage_seconds", "stages", obs.MicroLatencyBuckets, st)
	c := reg.Counter("hotserve_reloads_total", "reloads")
	g := reg.Gauge("bytelru_bytes", "bytes", cache("features"))
	scrapeText := func() obs.Scrape {
		var b strings.Builder
		if err := reg.WriteText(&b); err != nil {
			t.Fatal(err)
		}
		s, err := obs.ParseText(b.String())
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	for i := 0; i < 100; i++ {
		h.Observe(0.5) // before the phase: must not leak into the delta
	}
	c.Add(3)
	before := scrapeText()
	for i := 0; i < 50; i++ {
		h.Observe(0.001)
	}
	c.Add(2)
	g.Set(1 << 20)
	dl := delta{before: before, after: scrapeText()}

	if got := dl.counter("hotserve_reloads_total"); got != 2 {
		t.Errorf("counter delta = %v, want 2", got)
	}
	if got := dl.gauge("bytelru_bytes", cache("features")); got != 1<<20 {
		t.Errorf("gauge = %v, want %v", got, 1<<20)
	}
	ph := dl.hist("hotserve_stage_seconds", stage("predict"))
	if ph.Count != 50 {
		t.Fatalf("histogram delta holds %d observations, want 50", ph.Count)
	}
	if got := p50(ph); got <= 0 || got > 0.001 {
		t.Errorf("phase p50 = %v, want within (0, 1ms]", got)
	}
	if got := dl.hist("no_such_family"); got.Count != 0 || p50(got) != 0 {
		t.Errorf("absent family gave %+v", got)
	}
}

func TestQueryGenIsSeeded(t *testing.T) {
	stream := func(seed, conn uint64) []query {
		return newQueryGen(seed, conn, servedArtifacts, window, 125, topK).batch(64)
	}
	a, b := stream(7, 0), stream(7, 0)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different query streams")
	}
	if reflect.DeepEqual(a, stream(8, 0)) {
		t.Error("seeds 7 and 8 gave the same query stream")
	}
	if reflect.DeepEqual(a, stream(7, 1)) {
		t.Error("two connections of one seed share a query stream")
	}
	for _, q := range a {
		if q.T < window || q.T > 125 || q.K != topK {
			t.Errorf("query %+v outside the servable days or k", q)
		}
	}
	latest := newQueryGen(7, 0, servedArtifacts, 125, 125, topK).batch(4)
	if latest[0].Model == latest[1].Model || latest[0] != latest[2] || latest[0].T != 125 {
		t.Errorf("latest-day stream does not round-robin the artifacts: %+v", latest)
	}
}

// TestSegmentsScaleToReferenceSpeed checks the arithmetic that turns a
// phase's per-segment measurements into figures at the reference speed: a
// segment run at half speed (scale 0.5) counts half its wall and CPU
// seconds, and its latency samples count half.
func TestSegmentsScaleToReferenceSpeed(t *testing.T) {
	p := &phase{segs: []segment{
		{elapsed: 1, cpu: 2, rankings: 100, scale: 1},
		{elapsed: 2, cpu: 4, rankings: 100, scale: 0.5},
	}}
	p.rankings.Store(200)
	for i, l := range []float64{0.010, 0.020, 0.040} {
		p.record(l, -1, nil, 0, min(i, 1))
	}
	if got, want := p.rawRate(), 200.0/3; got != want {
		t.Errorf("rawRate = %v, want %v", got, want)
	}
	if got, want := p.refRate(), 200.0/2; got != want {
		t.Errorf("refRate = %v, want %v", got, want)
	}
	if raw, ref := p.cpuSeconds(); raw != 6 || ref != 4 {
		t.Errorf("cpuSeconds = %v, %v; want 6, 4", raw, ref)
	}
	if got, want := p.refLat(), []float64{0.010, 0.010, 0.020}; !reflect.DeepEqual(got, want) {
		t.Errorf("refLat = %v, want %v", got, want)
	}
	if s := refScale(2 * probeRef); s != 0.5 {
		t.Errorf("a probe twice the reference scales by %v, want 0.5", s)
	}
}

func TestReferenceProbeTimesRequests(t *testing.T) {
	srv := httptest.NewServer(refHandler())
	defer srv.Close()
	ref := newRefClient(srv.URL)
	defer ref.stop()
	if d, err := ref.probe(); err != nil || d <= 0 || d > 1 {
		t.Errorf("probe = %v s, %v; want a positive time well under 1 s per request", d, err)
	}
	if err := ref.get(-1); err == nil {
		t.Error("the reference server accepted a malformed seed")
	}
}

func TestSweepTsStayInsideTheGrid(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		ts := sweepTs(seed)
		if ts[0] < 60 || ts[4]+14 > 125 {
			t.Errorf("seed %d: grid days %v leave the data", seed, ts)
		}
	}
	if reflect.DeepEqual(sweepTs(1), sweepTs(2)) {
		t.Error("seeds 1 and 2 chose the same grid days")
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json's metric lists in
// step with what perfbench reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json above this directory")
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []spec `json:"end_to_end"`
		PerLayer  []spec `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end %v, perfbench reports %v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer %v, perfbench reports %v", b.PerLayer, perLayer)
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %q perfbench does not know", w.Name)
		}
	}
}
