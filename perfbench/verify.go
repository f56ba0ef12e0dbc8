package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sync"

	"repro/internal/delta"
	"repro/internal/engine"
	"repro/internal/mmlp"
	"repro/internal/shard"
)

// answer is the union of the solve and delta response bodies.
type answer struct {
	Status      string             `json:"status"`
	X           []float64          `json:"x"`
	Utility     float64            `json:"utility"`
	UpperBound  float64            `json:"upper_bound"`
	LatencyMS   float64            `json:"latency_ms"`
	Trace       map[string]float64 `json:"trace"`
	DirtyAgents int                `json:"dirty_agents"`
	TotalAgents int                `json:"total_agents"`
	Spliced     bool               `json:"spliced"`
}

// deltaExactSample is how many delta answers per run are checked bit for
// bit against a cold solve; the rest get the feasibility check.
const deltaExactSample = 12

// verifier checks answers against in-process solves. It runs after the
// fleet has stopped, so it does not compete with the measurement.
type verifier struct {
	w    *workload
	ring *shard.Ring

	mu     sync.Mutex
	expect map[*mmlp.Instance]*engine.Solution
	exact  map[int]bool // delta request indices checked bit for bit
}

func newVerifier(w *workload) *verifier {
	return &verifier{w: w, ring: newRing(), expect: map[*mmlp.Instance]*engine.Solution{}, exact: map[int]bool{}}
}

// pickExact marks the seeded sample of delta requests checked against a
// cold solve: the first deltaExactSample indices whose sample hash is 0
// mod 32.
func (v *verifier) pickExact(samples []sample) {
	for _, s := range samples {
		if len(v.exact) == deltaExactSample {
			return
		}
		if subSeed(v.w.seed, streamSample, s.idx)%32 == 0 {
			v.exact[s.idx] = true
		}
	}
}

// solved returns the in-process engine.Solve answer for in, computed once.
func (v *verifier) solved(in *mmlp.Instance, o engine.Options) (*engine.Solution, error) {
	v.mu.Lock()
	sol := v.expect[in]
	v.mu.Unlock()
	if sol != nil {
		return sol, nil
	}
	sol, _, err := engine.Solve(context.Background(), in, o)
	if err != nil {
		return nil, err
	}
	v.mu.Lock()
	v.expect[in] = sol
	v.mu.Unlock()
	return sol, nil
}

// check verifies one sample of the given stream. viaRouter says the
// request went through the router, whose X-Mmlp-Shard header must name
// the key's owner on the fixed ring.
func (v *verifier) check(stream int, s sample, viaRouter bool) error {
	if s.err != nil {
		return fmt.Errorf("request %d: %w", s.idx, s.err)
	}
	if s.status != http.StatusOK {
		return fmt.Errorf("request %d: status %d: %.200s", s.idx, s.status, s.body)
	}
	var a answer
	if err := json.Unmarshal(s.body, &a); err != nil {
		return fmt.Errorf("request %d: decode answer: %w", s.idx, err)
	}
	r := v.w.request(stream, s.idx)
	if viaRouter {
		if owner := v.ring.Owner(v.w.key(r)); s.shard != owner {
			return fmt.Errorf("request %d: answered by %q, ring owner is %q", s.idx, s.shard, owner)
		}
	}
	if v.w.name != "delta" {
		want, err := v.solved(r.in, coldOpts)
		if err != nil {
			return fmt.Errorf("request %d: in-process solve: %w", s.idx, err)
		}
		return sameSolution(s.idx, &a, want)
	}
	edited, err := delta.Apply(v.w.canonSet[r.member], r.edits)
	if err != nil {
		return fmt.Errorf("request %d: apply edits: %w", s.idx, err)
	}
	if stream == streamTimed && v.exact[s.idx] {
		want, _, err := engine.Solve(context.Background(), edited, deltaOpts)
		if err != nil {
			return fmt.Errorf("request %d: cold solve of the edited instance: %w", s.idx, err)
		}
		return sameSolution(s.idx, &a, want)
	}
	return feasible(s.idx, &a, edited)
}

// sameSolution requires the answer to be bit-identical to want.
func sameSolution(idx int, a *answer, want *engine.Solution) error {
	if a.Status != want.Status.String() {
		return fmt.Errorf("request %d: status %q, in-process %q", idx, a.Status, want.Status)
	}
	if len(a.X) != len(want.X) {
		return fmt.Errorf("request %d: len(x) %d, in-process %d", idx, len(a.X), len(want.X))
	}
	for j := range a.X {
		if math.Float64bits(a.X[j]) != math.Float64bits(want.X[j]) {
			return fmt.Errorf("request %d: x[%d] = %v, in-process %v", idx, j, a.X[j], want.X[j])
		}
	}
	if math.Float64bits(a.Utility) != math.Float64bits(want.Utility) ||
		math.Float64bits(a.UpperBound) != math.Float64bits(want.UpperBound) {
		return fmt.Errorf("request %d: (utility, upper_bound) = (%v, %v), in-process (%v, %v)",
			idx, a.Utility, a.UpperBound, want.Utility, want.UpperBound)
	}
	return nil
}

// feasTol absorbs the rounding of Σ a_iv x_v; the solver strictifies its
// output, so a true violation is far larger.
const feasTol = 1e-9

// feasible checks A·x ≤ 1, x ≥ 0, utility = min C·x and utility ≤
// upper_bound on the edited instance.
func feasible(idx int, a *answer, in *mmlp.Instance) error {
	if len(a.X) != in.NumAgents {
		return fmt.Errorf("request %d: len(x) %d, instance has %d agents", idx, len(a.X), in.NumAgents)
	}
	if v := in.MaxViolation(a.X); v > feasTol {
		return fmt.Errorf("request %d: x violates feasibility by %g", idx, v)
	}
	if u := in.Utility(a.X); math.Float64bits(u) != math.Float64bits(a.Utility) {
		return fmt.Errorf("request %d: utility %v, min C·x is %v", idx, a.Utility, u)
	}
	if !(a.Utility <= a.UpperBound) {
		return fmt.Errorf("request %d: utility %v above upper bound %v", idx, a.Utility, a.UpperBound)
	}
	return nil
}

// checkAll verifies samples on two goroutines and returns how many passed
// and the first few failures.
func (v *verifier) checkAll(stream int, samples []sample, viaRouter bool) (int, []error) {
	errs := make([]error, len(samples))
	var wg sync.WaitGroup
	for g := 0; g < conns; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(samples); i += conns {
				errs[i] = v.check(stream, samples[i], viaRouter)
			}
		}(g)
	}
	wg.Wait()
	ok := 0
	var bad []error
	for _, err := range errs {
		if err == nil {
			ok++
		} else if len(bad) < 5 {
			bad = append(bad, err)
		}
	}
	return ok, bad
}

// conservation checks that every request was counted exactly once: the
// router routed every request sent through it, and the shards ran one job
// per request that reached them, directly or routed.
func conservation(fs *mmlp.FleetStats, viaRouter, direct int64) error {
	var errs []error
	if fs.Router.Routed != viaRouter {
		errs = append(errs, fmt.Errorf("router routed %d, benchmark sent %d through it", fs.Router.Routed, viaRouter))
	}
	if fs.Fleet.Jobs != viaRouter+direct {
		errs = append(errs, fmt.Errorf("shards ran %d jobs, benchmark sent %d (%d routed + %d direct)",
			fs.Fleet.Jobs, viaRouter+direct, viaRouter, direct))
	}
	return errors.Join(errs...)
}
