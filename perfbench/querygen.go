package main

import "math/rand/v2"

// artifactRef selects one served artifact the way /forecast does.
type artifactRef struct {
	Model  string `json:"model"`
	Target string `json:"target"` // "hot" | "become"
}

// query is one ranking request: which artifact, which day, how many
// sectors.
type query struct {
	Model  string `json:"model"`
	Target string `json:"target"`
	T      int    `json:"t"`
	K      int    `json:"k"`
}

// queryGen yields a deterministic query stream. Each load connection owns
// one generator keyed by (seed, stream), so the stream a connection sends
// does not depend on how the scheduler interleaves connections.
type queryGen struct {
	rng      *rand.Rand
	arts     []artifactRef
	tLo, tHi int // inclusive day range
	k        int
	i        int
}

// newQueryGen draws days uniformly from [tLo, tHi]; with tLo == tHi every
// query asks for that one day and artifacts go round-robin from a
// seed-chosen start.
func newQueryGen(seed, stream uint64, arts []artifactRef, tLo, tHi, k int) *queryGen {
	g := &queryGen{rng: rand.New(rand.NewPCG(seed, stream)), arts: arts, tLo: tLo, tHi: tHi, k: k}
	g.i = g.rng.IntN(len(arts))
	return g
}

func (g *queryGen) next() query {
	var a artifactRef
	t := g.tLo
	if g.tHi > g.tLo {
		a = g.arts[g.rng.IntN(len(g.arts))]
		t = g.tLo + g.rng.IntN(g.tHi-g.tLo+1)
	} else {
		a = g.arts[g.i%len(g.arts)]
		g.i++
	}
	return query{Model: a.Model, Target: a.Target, T: t, K: g.k}
}

// batch returns the next n queries.
func (g *queryGen) batch(n int) []query {
	out := make([]query, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}
