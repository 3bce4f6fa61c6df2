package main

import (
	"fmt"
	"io"
	"math"
	"net/http"

	"repro/internal/obs"
)

// scrape fetches and parses GET /metrics through internal/obs's parser.
func scrape(c *http.Client, base string) (obs.Scrape, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape /metrics: status %d", resp.StatusCode)
	}
	return obs.ParseText(string(body))
}

// delta is the change in the server's series across one phase: the
// before and after scrapes of /metrics.
type delta struct{ before, after obs.Scrape }

// counter is a counter's increase over the phase.
func (d delta) counter(name string, labels ...obs.Label) float64 {
	a, _ := d.after.Value(name, labels...)
	b, _ := d.before.Value(name, labels...)
	return a - b
}

// gauge is a gauge's value at the end of the phase.
func (d delta) gauge(name string, labels ...obs.Label) float64 {
	v, _ := d.after.Value(name, labels...)
	return v
}

// hist is the histogram of the observations made during the phase (empty
// when the family is absent).
func (d delta) hist(name string, labels ...obs.Label) obs.HistSnapshot {
	a, ok := d.after.Histogram(name, labels...)
	if !ok {
		return obs.HistSnapshot{}
	}
	if b, ok := d.before.Histogram(name, labels...); ok {
		return a.Sub(b)
	}
	return a
}

// p50 is a histogram's median over the phase, 0 when nothing was observed.
func p50(h obs.HistSnapshot) float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Quantile(0.5)
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 || math.IsNaN(a) || math.IsNaN(b) {
		return 0
	}
	return a / b
}

func stage(s string) obs.Label { return obs.Label{Key: "stage", Value: s} }
func route(r string) obs.Label { return obs.Label{Key: "route", Value: r} }
func cache(c string) obs.Label { return obs.Label{Key: "cache", Value: c} }
