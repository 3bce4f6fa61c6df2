package main

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/forecast"
	"repro/internal/registry"
)

// oracle re-scores served rankings in-process: core.Pipeline.Predict and
// core.TopK over the registry's latest artifacts, on the same dataset the
// server generated. A served ranking must match bit for bit: the same
// sector ids in the same order and the same float64 score bits.
type oracle struct {
	p   *core.Pipeline
	reg *registry.Registry
}

// check compares every sample and returns how many it checked.
func (o oracle) check(samples []sample) (int, error) {
	arts := map[string]forecast.Trained{}
	for _, task := range o.reg.List() {
		tr, _, err := o.reg.LoadLatest(task.Key)
		if err != nil {
			return 0, fmt.Errorf("oracle: load %s: %w", task.Key, err)
		}
		arts[tr.ModelName()+"/"+tr.Target().String()] = tr
	}
	type dayKey struct {
		art string
		t   int
	}
	scores := map[dayKey][]float64{}
	for _, s := range samples {
		art := s.q.Model + "/" + targetName(s.q.Target)
		tr, ok := arts[art]
		if !ok {
			return 0, fmt.Errorf("oracle: no published artifact %s", art)
		}
		key := dayKey{art, s.q.T}
		sc, ok := scores[key]
		if !ok {
			var err error
			if sc, err = o.p.Predict(tr, s.q.T, tr.Window()); err != nil {
				return 0, fmt.Errorf("oracle: predict %s t=%d: %w", art, s.q.T, err)
			}
			scores[key] = sc
		}
		if err := sameRanking(s.r, sc, core.TopK(sc, s.q.K)); err != nil {
			return 0, fmt.Errorf("oracle: %s t=%d k=%d: %w", art, s.q.T, s.q.K, err)
		}
	}
	return len(samples), nil
}

// sameRanking compares a served ranking with the in-process top-k ids and
// scores, bit for bit.
func sameRanking(served ranking, scores []float64, top []int) error {
	if len(served.Top) != len(top) {
		return fmt.Errorf("served %d sectors, oracle ranks %d", len(served.Top), len(top))
	}
	for i, id := range top {
		got := served.Top[i]
		if got.Sector != id {
			return fmt.Errorf("rank %d: served sector %d, oracle sector %d", i, got.Sector, id)
		}
		if math.Float64bits(got.Score) != math.Float64bits(scores[id]) {
			return fmt.Errorf("rank %d sector %d: served score %v (%#x), oracle %v (%#x)",
				i, id, got.Score, math.Float64bits(got.Score), scores[id], math.Float64bits(scores[id]))
		}
	}
	return nil
}
