package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
)

// phase counts one load phase's requests and collects its latencies. A
// phase runs as back-to-back segments with a host probe between each two
// (hostspeed.go); every latency sample remembers its segment, so it can be
// scaled to the reference speed.
type phase struct {
	name                   string
	sent, ok, failed, shed atomic.Int64
	rankings               atomic.Int64
	elapsed                time.Duration
	mu                     sync.Mutex
	lat, lag               []float64 // seconds
	latSeg                 []int     // segment of each lat sample
	samples                []sample  // served rankings kept for the oracle
	firstErr               error
	segs                   []segment
}

// segment is one stretch of a phase between two host probes.
type segment struct {
	elapsed  float64 // wall seconds
	cpu      float64 // server CPU seconds
	rankings int64
	scale    float64 // refScale of the mean of the probes either side
}

// sample is one served ranking kept for the correctness oracle.
type sample struct {
	q query
	r ranking
}

func (p *phase) record(lat, lag float64, err error, n, seg int) {
	p.sent.Add(1)
	switch {
	case err == nil:
		p.ok.Add(1)
		p.rankings.Add(int64(n))
	case errors.Is(err, errShed):
		p.shed.Add(1)
		p.failed.Add(1)
	default:
		p.failed.Add(1)
	}
	p.mu.Lock()
	p.lat = append(p.lat, lat)
	p.latSeg = append(p.latSeg, seg)
	if lag >= 0 {
		p.lag = append(p.lag, lag)
	}
	if err != nil && p.firstErr == nil {
		p.firstErr = err
	}
	p.mu.Unlock()
}

func (p *phase) keep(s sample) {
	p.mu.Lock()
	p.samples = append(p.samples, s)
	p.mu.Unlock()
}

func (p *phase) print() {
	lat := append([]float64(nil), p.lat...)
	fmt.Printf("phase %-12s sent %6d  succeeded %6d  failed %4d  shed %4d  rankings %7d  in %.2fs  latency p50 %.3f ms p99 %.3f ms\n",
		p.name, p.sent.Load(), p.ok.Load(), p.failed.Load(), p.shed.Load(), p.rankings.Load(), p.elapsed.Seconds(),
		median(lat)*1e3, quantile(lat, 0.99)*1e3)
	if len(p.segs) > 0 {
		ref := p.refLat()
		slow := make([]float64, len(p.segs))
		for i, s := range p.segs {
			slow[i] = 1 / s.scale
		}
		fmt.Printf("phase %-12s %d segments, probe time %.3f..%.3f x reference (median %.3f); at reference speed: latency p50 %.3f ms p99 %.3f ms, rankings/s %.1f (raw %.1f)\n",
			p.name, len(p.segs), quantile(slow, 0), quantile(slow, 1), median(slow),
			median(ref)*1e3, quantile(ref, 0.99)*1e3, p.refRate(), p.rawRate())
	}
	if p.firstErr != nil {
		fmt.Printf("phase %-12s first failure: %v\n", p.name, p.firstErr)
	}
}

// sampler decides, from the workload seed, which served rankings the
// oracle re-checks: each with probability sampleRate, at most sampleMax per
// connection and phase. The cap bounds the oracle's in-process work (a
// cold day costs it a feature build of about 100 ms).
type sampler struct {
	rng  *rand.Rand
	left int
}

const (
	sampleRate = 0.05
	sampleMax  = 6
)

func newSampler(seed, stream uint64) *sampler {
	return &sampler{rng: rand.New(rand.NewPCG(seed^0x5eed, stream)), left: sampleMax}
}

func (s *sampler) take() bool {
	if s.left > 0 && s.rng.Float64() < sampleRate {
		s.left--
		return true
	}
	return false
}

// request is one unit of load on a connection: it sends, and returns the
// number of rankings served and the rankings to offer the sampler.
type request func(conn int) (n int, qs []query, rs []ranking, err error)

// segmented runs a phase of dur as back-to-back segments of seg. It probes
// the host before each segment and after the last, calls between (when not
// nil) after each segment's probe, and reads the server's CPU time around
// each segment. run sends one segment's load until its deadline and
// returns once its requests have completed.
func segmented(p *phase, dur, seg time.Duration, cpu func() (float64, error), between func(k int) error, run func(k int, until time.Time)) error {
	n := max(1, int(dur/seg))
	probes := make([]float64, 0, n+1)
	start := time.Now()
	for k := 0; k < n; k++ {
		pr, err := probeHost()
		if err != nil {
			return err
		}
		probes = append(probes, pr)
		if between != nil {
			if err := between(k); err != nil {
				return err
			}
		}
		c0, err := cpu()
		if err != nil {
			return err
		}
		r0, t0 := p.rankings.Load(), time.Now()
		run(k, t0.Add(seg))
		elapsed := time.Since(t0).Seconds()
		c1, err := cpu()
		if err != nil {
			return err
		}
		p.segs = append(p.segs, segment{elapsed: elapsed, cpu: c1 - c0, rankings: p.rankings.Load() - r0})
	}
	pr, err := probeHost()
	if err != nil {
		return err
	}
	probes = append(probes, pr)
	p.elapsed = time.Since(start)
	for k := range p.segs {
		p.segs[k].scale = refScale((probes[k] + probes[k+1]) / 2)
	}
	return nil
}

// closedLoop runs conns connections for dur in segments of seg; within a
// segment each connection sends its next request as soon as the previous
// one returns, until the segment's deadline.
func closedLoop(p *phase, conns int, dur, seg time.Duration, seed uint64, cpu func() (float64, error), do request, tr *tracer, spanName string) error {
	smps := samplers(seed, conns)
	return segmented(p, dur, seg, cpu, nil, func(k int, until time.Time) {
		var wg sync.WaitGroup
		for c := 0; c < conns; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for time.Now().Before(until) {
					sp := tr.Start(spanName, nil)
					t0 := time.Now()
					n, qs, rs, err := do(c)
					lat := time.Since(t0).Seconds()
					sp.End()
					p.record(lat, -1, err, n, k)
					offer(p, smps[c], qs, rs, err)
				}
			}(c)
		}
		wg.Wait()
	})
}

// openLoop sends, in each segment of seg, request i at the segment's start
// + i/rate on at most conns connections, for dur in all. Latency runs from
// the due time, so a request delayed because every connection was busy is
// charged the wait; lag is how late the request actually left.
func openLoop(p *phase, conns int, rate float64, dur, seg time.Duration, seed uint64, cpu func() (float64, error), between func(k int) error, do request, tr *tracer, spanName string) error {
	smps := samplers(seed, conns)
	perSeg := int64(rate * seg.Seconds())
	period := time.Duration(float64(time.Second) / rate)
	return segmented(p, dur, seg, cpu, between, func(k int, _ time.Time) {
		var next atomic.Int64
		start := time.Now()
		var wg sync.WaitGroup
		for c := 0; c < conns; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for {
					i := next.Add(1) - 1
					if i >= perSeg {
						return
					}
					due := start.Add(time.Duration(i) * period)
					if d := time.Until(due); d > 0 {
						time.Sleep(d)
					}
					lag := time.Since(due).Seconds()
					sp := tr.Start(spanName, nil)
					n, qs, rs, err := do(c)
					sp.End()
					p.record(time.Since(due).Seconds(), lag, err, n, k)
					offer(p, smps[c], qs, rs, err)
				}
			}(c)
		}
		wg.Wait()
	})
}

func samplers(seed uint64, conns int) []*sampler {
	smps := make([]*sampler, conns)
	for c := range smps {
		smps[c] = newSampler(seed, uint64(c))
	}
	return smps
}

// rawRate is the phase's rankings per measured wall second.
func (p *phase) rawRate() float64 {
	var secs float64
	for _, s := range p.segs {
		secs += s.elapsed
	}
	return float64(p.rankings.Load()) / secs
}

// refRate is the phase's rankings per second at the reference speed.
func (p *phase) refRate() float64 {
	var secs float64
	for _, s := range p.segs {
		secs += s.elapsed * s.scale
	}
	return float64(p.rankings.Load()) / secs
}

// cpuSeconds sums the server's CPU seconds over the phase's segments,
// raw and at the reference speed.
func (p *phase) cpuSeconds() (raw, ref float64) {
	for _, s := range p.segs {
		raw += s.cpu
		ref += s.cpu * s.scale
	}
	return raw, ref
}

// refLat is the phase's latency samples at the reference speed.
func (p *phase) refLat() []float64 {
	out := make([]float64, len(p.lat))
	for i, l := range p.lat {
		if k := p.latSeg[i]; k < len(p.segs) {
			out[i] = l * p.segs[k].scale
		}
	}
	return out
}

func offer(p *phase, smp *sampler, qs []query, rs []ranking, err error) {
	if err != nil {
		return
	}
	for i := range rs {
		if rs[i].Error == "" && smp.take() {
			p.keep(sample{q: qs[i], r: rs[i]})
		}
	}
}
