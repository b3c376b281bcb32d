package main

import (
	"math/rand"
	"sort"
)

// op is one generated write: a payment of amount from one account to
// another. A cross op moves money between the two shards through 2PC; a
// local op moves it inside one shard through smallbank-auto's direct path.
type op struct {
	Cross            bool
	FromShard, Shard int // Shard is the payee's shard (the payer's for local ops)
	From, To         string
	Amount           int64
}

// gen produces a workload's write sequence from its seed alone: the same
// seed and mix give the same sequence, whatever the cluster does.
type gen struct {
	rng      *rand.Rand
	accounts [][]string
	cross    float64 // share of cross-shard ops
	zipf     bool    // Zipf(1.0) account choice; uniform otherwise
	cdf      []float64
	perm     [][]int // per shard: Zipf rank -> account index
}

// newGen returns a generator over accounts (per shard). cross is the
// share of cross-shard payments; zipf selects Zipf(1.0) account choice.
func newGen(seed int64, accounts [][]string, cross float64, zipf bool) *gen {
	g := &gen{rng: rand.New(rand.NewSource(seed)), accounts: accounts, cross: cross, zipf: zipf}
	if zipf {
		n := len(accounts[0])
		g.cdf = make([]float64, n)
		var sum float64
		for r := 0; r < n; r++ {
			sum += 1 / float64(r+1)
			g.cdf[r] = sum
		}
		for r := range g.cdf {
			g.cdf[r] /= sum
		}
		// Which accounts are hot depends on the seed, not on their names.
		for range accounts {
			g.perm = append(g.perm, g.rng.Perm(n))
		}
	}
	return g
}

func (g *gen) pick(shard int) int {
	n := len(g.accounts[shard])
	if !g.zipf {
		return g.rng.Intn(n)
	}
	r := sort.SearchFloat64s(g.cdf, g.rng.Float64())
	if r >= n {
		r = n - 1
	}
	return g.perm[shard][r]
}

func (g *gen) next() op {
	shards := len(g.accounts)
	o := op{Amount: int64(1 + g.rng.Intn(50))}
	o.Cross = g.cross > 0 && g.rng.Float64() < g.cross
	o.FromShard = g.rng.Intn(shards)
	o.Shard = o.FromShard
	if o.Cross {
		o.Shard = (o.FromShard + 1 + g.rng.Intn(shards-1)) % shards
	}
	from := g.pick(o.FromShard)
	to := g.pick(o.Shard)
	for !o.Cross && to == from {
		to = g.pick(o.Shard)
	}
	o.From = g.accounts[o.FromShard][from]
	o.To = g.accounts[o.Shard][to]
	return o
}
