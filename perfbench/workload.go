package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"

	"repro/internal/canon"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/mmlp"
	"repro/internal/shard"
)

// request is one HTTP request of a workload. Requests are pure functions of
// (workload, seed, stream, index), so the verifier regenerates them instead
// of keeping their bodies.
type request struct {
	path        string // "/v1/solve" or "/v1/delta"
	contentType string
	body        []byte
	// member is the working-set member (warm) or base (delta) the request
	// derives from; -1 for cold.
	member int
	// in is the instance sent (cold, warm); nil for delta.
	in *mmlp.Instance
	// edits is the delta edit set (delta only).
	edits []mmlp.RowEdit
}

// Request streams: the seed is mixed with a stream tag, so priming,
// timed and paired requests never share an input.
const (
	streamTimed = iota + 1
	streamPrime
	streamSample
	streamPair
)

// subSeed derives an independent 63-bit seed for (seed, stream, i) with
// the splitmix64 finaliser.
func subSeed(seed int64, stream, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(stream)<<40 + uint64(i)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 1)
}

// newRand returns the generator for (seed, stream, i). PCG seeds in a few
// nanoseconds, so each request can own one without slowing the load loop.
func newRand(seed int64, stream, i int) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(subSeed(seed, stream, i)), uint64(stream)))
}

// Instance shapes.
var (
	// coldConfig is a general instance of 200 agents with ΔI, ΔK ≤ 3.
	coldConfig = gen.RandomConfig{Agents: 200, MaxDegI: 3, MaxDegK: 3, ExtraCons: 20, ExtraObjs: 20}
	coldOpts   = engine.Options{R: 3}
	deltaOpts  = engine.Options{R: 4, DisableSpecialCases: true}
)

const (
	// warmPerShard working-set members are owned by each shard; the set is
	// drawn from a fixed seed, so its key split is the same on every run.
	warmPerShard   = 8
	warmVariants   = 8 // row/term permutations sent per member
	warmSetSeed    = 20090811
	deltaPerShard  = 2    // TriNecklace bases owned by each shard
	deltaBaseM     = 1000 // smallest base: 3m = 3000 agents
	deltaMaxEdits  = 3
	coldPrime      = 128     // untimed cold solves that overflow coldCacheBytes
	coldCacheBytes = 1 << 20 // shard cache budget on cold: ≈32 entries
	warmCacheBytes = 64 << 20
)

// workload is one named traffic mix.
type workload struct {
	name       string
	cacheBytes int64
	seed       int64
	// set is the fixed working set (warm) or bases (delta).
	set     []*mmlp.Instance
	setKeys []canon.Key
	// variants are the pre-encoded permutations of each warm member.
	variants [][]request
	// canonSet is the canonical form of each delta base: the instance
	// delta.Apply edits on the shard.
	canonSet []*mmlp.Instance
}

var workloadNames = []string{"cold", "warm", "delta"}

func newWorkload(name string, seed int64) (*workload, error) {
	w := &workload{name: name, seed: seed, cacheBytes: warmCacheBytes}
	ring := newRing()
	switch name {
	case "cold":
		w.cacheBytes = coldCacheBytes
	case "warm":
		w.set, w.setKeys = pickBalanced(ring, warmPerShard, func(j int) *mmlp.Instance {
			return gen.Random(coldConfig, warmSetSeed+int64(j))
		}, coldOpts)
		for m, in := range w.set {
			vs := make([]request, warmVariants)
			for v := range vs {
				p := permute(in, newRand(warmSetSeed, m, v))
				vs[v] = solveRequest(p, coldOpts, m)
			}
			w.variants = append(w.variants, vs)
		}
	case "delta":
		w.set, w.setKeys = pickBalanced(ring, deltaPerShard, func(j int) *mmlp.Instance {
			return gen.TriNecklace(deltaBaseM + j)
		}, deltaOpts)
		for _, in := range w.set {
			w.canonSet = append(w.canonSet, in.Canonical())
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	return w, nil
}

// pickBalanced walks the candidates build(0), build(1), ... and keeps the
// first perShard owned by each shard, so the set splits evenly over the
// fleet. Ownership depends only on the fixed member names.
func pickBalanced(ring *shard.Ring, perShard int, build func(j int) *mmlp.Instance, o engine.Options) ([]*mmlp.Instance, []canon.Key) {
	var set []*mmlp.Instance
	var keys []canon.Key
	taken := map[string]int{}
	for j := 0; len(set) < perShard*len(shardAddrs); j++ {
		in := build(j)
		k := engine.SolveKey(in, o)
		if owner := ring.Owner(k); taken[owner] < perShard {
			taken[owner]++
			set = append(set, in)
			keys = append(keys, k)
		}
	}
	return set, keys
}

// permute returns a copy of in with its rows and each row's terms shuffled:
// the same problem, spelt differently.
func permute(in *mmlp.Instance, rng *rand.Rand) *mmlp.Instance {
	out := in.Clone()
	shuffle := func(ts []mmlp.Term) { rng.Shuffle(len(ts), func(a, b int) { ts[a], ts[b] = ts[b], ts[a] }) }
	rng.Shuffle(len(out.Cons), func(a, b int) { out.Cons[a], out.Cons[b] = out.Cons[b], out.Cons[a] })
	rng.Shuffle(len(out.Objs), func(a, b int) { out.Objs[a], out.Objs[b] = out.Objs[b], out.Objs[a] })
	for _, r := range out.Cons {
		shuffle(r.Terms)
	}
	for _, r := range out.Objs {
		shuffle(r.Terms)
	}
	return out
}

func solveRequest(in *mmlp.Instance, o engine.Options, member int) request {
	body, err := json.Marshal(mmlp.SolveRequest{Instance: in, R: o.R, DisableSpecialCases: o.DisableSpecialCases})
	if err != nil {
		panic(err) // generated instances hold only finite numbers
	}
	return request{path: "/v1/solve", contentType: mmlp.ContentTypeJSON, body: body, member: member, in: in}
}

// request returns request i of the given stream.
func (w *workload) request(stream, i int) request {
	rng := newRand(w.seed, stream, i)
	switch w.name {
	case "cold":
		return solveRequest(gen.Random(coldConfig, rng.Int64()), coldOpts, -1)
	case "warm":
		m := rng.IntN(len(w.set))
		return w.variants[m][rng.IntN(warmVariants)]
	default: // delta
		b := rng.IntN(len(w.set))
		edits := necklaceEdits(w.set[b].NumAgents/3, rng)
		body, err := json.Marshal(mmlp.DeltaRequest{Base: w.setKeys[b].String(), Edits: edits})
		if err != nil {
			panic(err)
		}
		return request{path: "/v1/delta", contentType: mmlp.ContentTypeJSON, body: body, member: b, edits: edits}
	}
}

// necklaceEdits draws 1..deltaMaxEdits edits against gen.TriNecklace(m):
// mostly reweights of a constraint, some additions of a new constraint.
// No constraint is touched twice, so every edit applies.
func necklaceEdits(m int, rng *rand.Rand) []mmlp.RowEdit {
	coef := func() float64 { return 0.5 + 1.5*rng.Float64() }
	n := 1 + rng.IntN(deltaMaxEdits)
	used := map[int]bool{}
	edits := make([]mmlp.RowEdit, 0, n)
	for len(edits) < n {
		k := rng.IntN(m)
		if used[k] {
			continue
		}
		used[k] = true
		// Agents L_k = 3k, C_k = 3k+1, R_k = 3k+2 (see gen.TriNecklace).
		next := (k + 1) % m
		if rng.IntN(5) == 0 {
			// A new constraint {L_k, C_{k+1}}: no base row joins them.
			edits = append(edits, mmlp.RowEdit{Op: mmlp.EditAdd, Kind: mmlp.EditConstraint,
				Terms: []mmlp.Term{{Agent: 3 * k, Coef: coef()}, {Agent: 3*next + 1, Coef: coef()}}})
			continue
		}
		a, b := 3*k+2, 3*next // {R_k, L_{k+1}}
		if rng.IntN(2) == 0 {
			a, b = 3*k+1, 3*next+1 // {C_k, C_{k+1}}
		}
		edits = append(edits, mmlp.RowEdit{Op: mmlp.EditReweight, Kind: mmlp.EditConstraint,
			Match: []mmlp.Term{{Agent: a, Coef: 1}, {Agent: b, Coef: 1}},
			Terms: []mmlp.Term{{Agent: a, Coef: coef()}, {Agent: b, Coef: coef()}}})
	}
	return edits
}

// prime returns the untimed requests that set the fleet up for the timed
// window, in phases sent one after the other: the cold cache overflowed,
// the warm working set cached, and every delta base solved and then
// edited once, so the memoised base structure is built before timing
// starts.
func (w *workload) prime() [][]request {
	var out []request
	switch w.name {
	case "cold":
		for i := 0; i < coldPrime; i++ {
			out = append(out, w.request(streamPrime, i))
		}
	case "warm":
		for m := range w.set {
			out = append(out, w.variants[m][0])
		}
	case "delta":
		var edits []request
		for b, in := range w.set {
			out = append(out, solveRequest(in, deltaOpts, b))
			rng := newRand(w.seed, streamPrime, b)
			es := necklaceEdits(w.set[b].NumAgents/3, rng)
			body, err := json.Marshal(mmlp.DeltaRequest{Base: w.setKeys[b].String(), Edits: es})
			if err != nil {
				panic(err)
			}
			edits = append(edits, request{path: "/v1/delta", contentType: mmlp.ContentTypeJSON, body: body, member: b, edits: es})
		}
		return [][]request{out, edits}
	}
	return [][]request{out}
}

// key returns the routing key of a request: the key the router computes.
func (w *workload) key(r request) canon.Key {
	if r.member < 0 {
		return engine.SolveKey(r.in, coldOpts)
	}
	return w.setKeys[r.member]
}
