package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/batch"
	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/engine"
	"repro/internal/mmlp"
	"repro/internal/obs"
	"repro/internal/structured"
	"repro/internal/transform"
)

// pairCount is how many requests the traced run sends twice: through the
// router, then straight to the owning shard.
const pairCount = 100

// Replay bounds: the in-process replay covers the first timed requests
// until either limit is reached.
const (
	replayMax    = 200
	replayBudget = 3 * time.Second
)

// span is one timed call, kept in memory and written out when the run
// ends. Parent indexes the enclosing span (-1 for a root); spans of one
// request share Req.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    string `json:"req"`
}

type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, parent int, req string) int {
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Req: req})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].End = int64(time.Since(t.t0)) }

// pipelineOrder lists the engine stages in the order a request runs them.
var pipelineOrder = []obs.Stage{
	obs.StageCanonicalize, obs.StageHash, obs.StageCacheLookup, obs.StageTransform,
	obs.StageKernel, obs.StageBackMap, obs.StageDeltaPlan, obs.StageDeltaKernel, obs.StageDeltaSplice,
}

// stages adds the engine's own stage timings (engine.Scratch.Trace) as
// children of parent. The engine records durations only, so the children
// are laid end to end from the parent's start.
func (t *tracer) stages(parent int, req string, tr *obs.Trace) {
	at := t.spans[parent].Start
	for _, s := range pipelineOrder {
		if ns := tr.NS(s); ns > 0 {
			t.spans = append(t.spans, span{Name: "stage." + s.String(), Start: at, End: at + ns, Parent: parent, Req: req})
			at += ns
		}
	}
}

// ms returns the durations in milliseconds of the spans called name.
func (t *tracer) ms(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

func (t *tracer) write(path string) error {
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(fh)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			fh.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		fh.Close()
		return err
	}
	return fh.Close()
}

// cpuSnapshot is the CPU time used so far by the benchmark itself, the
// router and the shards.
type cpuSnapshot struct {
	self, router, shards time.Duration
}

func takeCPU(f *fleet) (cpuSnapshot, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return cpuSnapshot{}, err
	}
	c := cpuSnapshot{self: time.Duration(ru.Utime.Nano() + ru.Stime.Nano())}
	tick := time.Second / ticksPerSecond
	rt, err := cpuTicks(f.routerPID())
	if err != nil {
		return cpuSnapshot{}, err
	}
	c.router = time.Duration(rt) * tick
	for _, pid := range f.shardPIDs() {
		st, err := cpuTicks(pid)
		if err != nil {
			return cpuSnapshot{}, err
		}
		c.shards += time.Duration(st) * tick
	}
	return c, nil
}

// histDelta returns after − before bucket-wise: the observations made
// between two scrapes of a cumulative histogram.
func histDelta(after, before *obs.HistRaw) *obs.HistRaw {
	dense := func(h *obs.HistRaw) []int64 {
		d := make([]int64, obs.NumBuckets)
		if h != nil {
			for i, b := range h.Bucket {
				d[b] += h.N[i]
			}
		}
		return d
	}
	a, b := dense(after), dense(before)
	out := &obs.HistRaw{}
	if after != nil {
		out.SumNS, out.MaxNS = after.SumNS, after.MaxNS
	}
	if before != nil {
		out.SumNS -= before.SumNS
	}
	for i := range a {
		if n := a[i] - b[i]; n > 0 {
			out.Bucket = append(out.Bucket, i)
			out.N = append(out.N, n)
			out.Count += n
		}
	}
	return out
}

// bucketOf returns the histogram bucket holding ns.
func bucketOf(ns int64) int {
	return sort.Search(obs.NumBuckets, func(i int) bool { return obs.UpperBoundNS(i) >= ns })
}

// pair is one request sent through the router and then straight to its
// owning shard.
type pair struct {
	via, direct sample
}

// sendPairs sends pairCount requests of the pair stream, each first
// through the router and then to its owner, one at a time.
func sendPairs(w *workload, tag string) []pair {
	ring := newRing()
	clients := map[string]*client{routerAddr: {addr: routerAddr}}
	for _, a := range shardAddrs {
		clients[a] = &client{addr: a}
	}
	defer func() {
		for _, c := range clients {
			c.close()
		}
	}()
	out := make([]pair, pairCount)
	for i := range out {
		r := w.request(streamPair, i)
		id := fmt.Sprintf("%s-pair-%d", tag, i)
		out[i].via = clients[routerAddr].send(r, id)
		out[i].direct = clients[ring.Owner(w.key(r))].send(r, id+"-direct")
		out[i].via.idx, out[i].direct.idx = i, i
	}
	return out
}

// serverMS reads latency_ms from an answer body (NaN when absent).
func serverMS(body []byte) float64 {
	var a answer
	if json.Unmarshal(body, &a) != nil {
		return math.NaN()
	}
	return a.LatencyMS
}

// tracePhases is how many untraced and traced phases the traced run
// alternates, so that drift over the window affects both alike.
const tracePhases = 5

// tracedRun measures the per-layer metrics. The window alternates
// untraced phases, which give the CPU accounting, with traced phases,
// whose per-request trace blocks are checked against the shards' stage
// histograms over the same phases. The router/direct pairs and the
// in-process replay follow.
func tracedRun(cfg *config, w *workload, f *fleet, m *meta, primed int) (*result, error) {
	phase := time.Duration(cfg.seconds) * time.Second / (2 * tracePhases)
	tag := fmt.Sprintf("pb%d", cfg.seed)
	before, err := f.stats()
	if err != nil {
		return nil, err
	}
	var timed, plain, traced []sample
	var plainDur, tracedDur time.Duration
	var cpu cpuSnapshot // CPU used during the untraced phases
	stageHists := map[string]*obs.HistRaw{}
	for p := 0; p < 2*tracePhases; p++ {
		if p%2 == 0 {
			c0, err := takeCPU(f)
			if err != nil {
				return nil, err
			}
			ss, d := window(w, len(timed), phase, "")
			c1, err := takeCPU(f)
			if err != nil {
				return nil, err
			}
			cpu.self += c1.self - c0.self
			cpu.router += c1.router - c0.router
			cpu.shards += c1.shards - c0.shards
			plain, plainDur, timed = append(plain, ss...), plainDur+d, append(timed, ss...)
			continue
		}
		s0, err := f.stats()
		if err != nil {
			return nil, err
		}
		ss, d := window(w, len(timed), phase, tag)
		s1, err := f.stats()
		if err != nil {
			return nil, err
		}
		for name, h := range s1.Fleet.Stages {
			if stageHists[name] == nil {
				stageHists[name] = &obs.HistRaw{}
			}
			stageHists[name].Merge(histDelta(h, s0.Fleet.Stages[name]))
		}
		traced, tracedDur, timed = append(traced, ss...), tracedDur+d, append(timed, ss...)
	}
	after, err := f.stats()
	if err != nil {
		return nil, err
	}
	pairs := sendPairs(w, tag)
	final, err := f.stats()
	if err != nil {
		return nil, err
	}
	stopActive()

	var failures []string
	fail := func(err error) {
		if err != nil {
			failures = append(failures, err.Error())
		}
	}
	fail(conservation(final, int64(primed+len(timed)+pairCount), pairCount))
	v := newVerifier(w)
	v.pickExact(timed)
	ok, bad := v.checkAll(streamTimed, timed, true)
	var vias, directs []sample
	for _, p := range pairs {
		vias, directs = append(vias, p.via), append(directs, p.direct)
	}
	_, badVia := v.checkAll(streamPair, vias, true)
	_, badDirect := v.checkAll(streamPair, directs, false)
	for _, e := range append(append(bad, badVia...), badDirect...) {
		fail(e)
	}

	values := map[string]float64{}
	n := float64(len(plain))
	values["loadgen.cpu_ms_per_req"] = float64(cpu.self) / 1e6 / n
	values["router.cpu_ms_per_req"] = float64(cpu.router) / 1e6 / n
	values["serve.cpu_ms_per_req"] = float64(cpu.shards) / 1e6 / n
	values["trace.overhead_pct"] = 100 * (1 - (float64(len(traced))/tracedDur.Seconds())/(n/plainDur.Seconds()))

	// Router hop: the same request through the router and direct, each
	// less the shard's own latency_ms, so a cache hit on the repeat does
	// not count as router time.
	var added, front []float64
	for _, p := range pairs {
		vs, ds := serverMS(p.via.body), serverMS(p.direct.body)
		a := (float64(p.via.lat)/1e6 - vs) - (float64(p.direct.lat)/1e6 - ds)
		if !math.IsNaN(a) {
			added = append(added, a)
			front = append(front, float64(p.direct.lat)/1e6-ds)
		}
	}
	values["router.added_ms"] = median(added)
	values["serve.front_ms"] = median(front)
	values["router.retried"] = float64(final.Router.Retried)
	keys, reqs, share := shardSplit(w, timed)
	m.KeysPerShard, m.ReqsPerShard = keys, reqs
	values["router.max_shard_share"] = share

	var reqBytes, respBytes float64
	for _, s := range timed {
		reqBytes += float64(s.reqBytes)
		respBytes += float64(len(s.body))
	}
	values["mmlp.request_bytes"] = reqBytes / float64(len(timed))
	values["mmlp.response_bytes"] = respBytes / float64(len(timed))

	// Fleet counters over the whole window.
	fb, fa := before.Fleet, after.Fleet
	hits, misses := fa.Cache.Hits-fb.Cache.Hits, fa.Cache.Misses-fb.Cache.Misses
	values["cache.hit_ratio"] = float64(hits) / float64(max(hits+misses, 1))
	values["cache.evictions_per_req"] = float64(fa.Cache.Evictions-fb.Cache.Evictions) / float64(len(timed))
	values["cache.resident_mib"] = float64(fa.Cache.Bytes) / (1 << 20)
	values["cache.lookup_ms"] = float64(histDelta(fa.Stages["cache_lookup"], fb.Stages["cache_lookup"]).QuantileNS(0.5)) / 1e6
	qw := histDelta(fa.Stages["queue_wait"], fb.Stages["queue_wait"])
	values["batch.queue_wait_p50_ms"] = float64(qw.QuantileNS(0.5)) / 1e6
	values["batch.queue_wait_p99_ms"] = float64(qw.QuantileNS(0.99)) / 1e6
	values["batch.allocs_per_job"] = fa.AllocsPerJob
	values["batch.jobs"] = float64(fa.Jobs - fb.Jobs)

	answers := make([]answer, 0, len(traced))
	for _, s := range traced {
		var a answer
		if json.Unmarshal(s.body, &a) == nil {
			answers = append(answers, a)
		}
	}
	coverage, err := checkStages(answers, stageHists)
	fail(err)
	values["serve.stage_coverage"] = coverage
	var dirty, spliced []float64
	for _, a := range answers {
		if a.TotalAgents > 0 {
			dirty = append(dirty, float64(a.DirtyAgents)/float64(a.TotalAgents))
			spliced = append(spliced, b2f(a.Spliced))
		}
	}
	values["delta.dirty_ratio"] = mean(dirty)
	values["delta.spliced_ratio"] = mean(spliced)
	values["setup.boot_s"] = medianSetup(m.Setups, func(s setupTimes) float64 { return s.Boot })
	values["setup.prime_s"] = medianSetup(m.Setups, func(s setupTimes) float64 { return s.Prime })

	tr := &tracer{t0: time.Now()}
	if err := replay(w, timed, tr, values); err != nil {
		return nil, err
	}
	if err := tr.write(filepath.Join(cfg.out, "spans-"+w.name+".jsonl")); err != nil {
		return nil, err
	}
	m.Samples = len(timed)
	m.Failures = failures
	metrics, err := render(perLayer, values)
	if err != nil {
		return nil, err
	}
	return &result{Correct: len(failures) == 0, Attempted: len(timed), Failed: len(timed) - ok, Metrics: metrics}, nil
}

// stageTolerance is the histograms' relative bucket error (25%), the
// tolerance for stage sums against the shard's latency_ms.
const stageTolerance = 0.25

// checkStages compares the traced phases' per-request trace blocks with
// the shards' stage histograms over the same phases: every stage must have
// as many observations in both, and medians in the same bucket (± one,
// for the ms rounding of the trace block). It returns the median share of
// each request's shard latency_ms that its stages cover.
func checkStages(answers []answer, hists map[string]*obs.HistRaw) (float64, error) {
	var errs []error
	for _, s := range append([]obs.Stage{obs.StageQueueWait}, pipelineOrder...) {
		name := s.String()
		var ns []int64
		for _, a := range answers {
			if v := a.Trace[name]; v > 0 {
				ns = append(ns, int64(math.Round(v*1e6)))
			}
		}
		h := hists[name]
		if h == nil {
			h = &obs.HistRaw{}
		}
		if h.Count != int64(len(ns)) {
			errs = append(errs, fmt.Errorf("stage %s: histogram counted %d, trace blocks %d", name, h.Count, len(ns)))
			continue
		}
		if len(ns) == 0 {
			continue
		}
		sort.Slice(ns, func(a, b int) bool { return ns[a] < ns[b] })
		got := bucketOf(ns[int(0.5*float64(len(ns)-1))])
		want := bucketOf(h.QuantileNS(0.5))
		if got < want-1 || got > want+1 {
			errs = append(errs, fmt.Errorf("stage %s: trace median in bucket %d, histogram median in bucket %d", name, got, want))
		}
	}
	var cover []float64
	for _, a := range answers {
		sum := 0.0
		for name, v := range a.Trace {
			if name != obs.StageQueueWait.String() {
				sum += v
			}
		}
		if a.LatencyMS > 0 {
			cover = append(cover, sum/a.LatencyMS)
		}
	}
	// The stages time disjoint parts of the solve, so their sum may fall
	// short of latency_ms by the untimed glue but never exceed it.
	c := median(cover)
	if c < 1-stageTolerance || c > 1+1e-9 {
		errs = append(errs, fmt.Errorf("shard stages cover %.3f of latency_ms (median), want within %.2f of 1", c, stageTolerance))
	}
	return c, errors.Join(errs...)
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// structuredOf runs the transform pipeline the engine runs before the
// kernel and returns the structured form.
func structuredOf(in *mmlp.Instance) (*structured.Instance, error) {
	var tsc transform.Scratch
	pp := transform.PreprocessScratch(in, &tsc)
	if pp.Outcome != transform.OK {
		return nil, fmt.Errorf("preprocess outcome %v", pp.Outcome)
	}
	pipe, err := transform.StructureScratch(pp.Out, &tsc)
	if err != nil {
		return nil, err
	}
	return structured.FromMMLPScratch(pipe.Final(), new(structured.Scratch))
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// hashAllocs counts the allocations of one canon.Hash (via engine.SolveKey)
// on a pool emptied by two collections, and of the next call, which finds
// the hasher the first one returned.
func hashAllocs(in *mmlp.Instance, o engine.Options) (cold, warm float64) {
	var cs, ws []float64
	for rep := 0; rep < 5; rep++ {
		runtime.GC()
		runtime.GC()
		a := mallocs()
		engine.SolveKey(in, o)
		b := mallocs()
		engine.SolveKey(in, o)
		c := mallocs()
		cs, ws = append(cs, float64(b-a)), append(ws, float64(c-b))
	}
	return median(cs), median(ws)
}

// replay runs the first timed requests in process through the layer
// functions each shard calls, with a span around every call, and fills
// the span-derived metrics.
func replay(w *workload, timed []sample, tr *tracer, values map[string]float64) error {
	ctx := context.Background()
	sc := engine.NewScratch()
	ca := engine.NewCache(engine.CacheOptions{MaxBytes: w.cacheBytes})
	var cs mmlp.CanonScratch
	var bases []*structured.Instance
	opts := coldOpts
	switch w.name {
	case "warm":
		for _, in := range w.set {
			if _, _, _, err := engine.SolveCached(ctx, in, opts, sc, ca); err != nil {
				return err
			}
		}
	case "delta":
		opts = deltaOpts
		for b, in := range w.set {
			if _, _, _, err := engine.SolveCached(ctx, in, opts, sc, ca); err != nil {
				return err
			}
			s, err := structuredOf(w.canonSet[b])
			if err != nil {
				return fmt.Errorf("structure base %d: %w", b, err)
			}
			bases = append(bases, s)
		}
		for _, r := range w.prime()[1] {
			if _, _, _, err := engine.SolveDelta(ctx, w.setKeys[r.member], r.edits, sc, ca); err != nil {
				return err
			}
		}
	}

	var kernelMS, kernelPerAgent, agents, transformMS, backMapMS, planMS, dkernelMS, spliceMS, allocs []float64
	stageMS := func(tr *obs.Trace, s obs.Stage, dst *[]float64) {
		if ns := tr.NS(s); ns > 0 {
			*dst = append(*dst, float64(ns)/1e6)
		}
	}
	deadline := time.Now().Add(replayBudget)
	for j, s := range timed {
		if j == replayMax || time.Now().After(deadline) {
			break
		}
		r := w.request(streamTimed, s.idx)
		id := fmt.Sprintf("replay-%d", s.idx)
		root := tr.begin("request", -1, id)
		var res batch.Result
		var in *mmlp.Instance
		switch w.name {
		case "cold", "warm":
			sp := tr.begin("mmlp.decode", root, id)
			var req mmlp.SolveRequest
			err := json.Unmarshal(r.body, &req)
			if err == nil {
				err = req.Validate()
			}
			if err == nil {
				err = req.Instance.Validate()
			}
			tr.end(sp)
			if err != nil {
				return fmt.Errorf("replay %d: decode: %w", s.idx, err)
			}
			job, err := batch.JobFromRequest(&req)
			if err != nil {
				return err
			}
			in = job.In
			sp = tr.begin("canon.canonicalize", root, id)
			in.CanonicalInto(&cs)
			tr.end(sp)
			sp = tr.begin("canon.hash", root, id)
			engine.SolveKey(in, job.Opts)
			tr.end(sp)
			sp = tr.begin("engine.solve", root, id)
			t := time.Now()
			res.Sol, res.Dist, res.Cached, res.Err = engine.SolveCached(ctx, in, job.Opts, sc, ca)
			res.Latency = time.Since(t)
			tr.end(sp)
			tr.stages(sp, id, &sc.Trace)
			// The key a canon-wire client's request gets: the hash of the
			// same instance's canon payload, which the router and shard
			// compute without decoding.
			payload := engine.EncodeCanon(in, job.Opts)
			sp = tr.begin("canon.hash_bytes", root, id)
			canon.HashBytes(payload)
			tr.end(sp)
		case "delta":
			in = w.set[r.member]
			sp := tr.begin("mmlp.decode", root, id)
			var req mmlp.DeltaRequest
			err := json.Unmarshal(r.body, &req)
			if err == nil {
				err = req.Validate()
			}
			tr.end(sp)
			if err != nil {
				return fmt.Errorf("replay %d: decode: %w", s.idx, err)
			}
			job, err := batch.JobFromDelta(&req)
			if err != nil {
				return err
			}
			sp = tr.begin("delta.apply", root, id)
			edited, err := delta.Apply(w.canonSet[r.member], job.Delta.Edits)
			tr.end(sp)
			if err != nil {
				return fmt.Errorf("replay %d: apply: %w", s.idx, err)
			}
			sp = tr.begin("canon.canonicalize", root, id)
			cin := edited.CanonicalInto(&cs)
			tr.end(sp)
			sp = tr.begin("canon.hash", root, id)
			engine.SolveKey(cin, opts)
			tr.end(sp)
			sNew, err := structuredOf(cin)
			if err != nil {
				return fmt.Errorf("replay %d: structure: %w", s.idx, err)
			}
			sp = tr.begin("delta.bfs", root, id)
			_, err = delta.Plan(bases[r.member], sNew, core.TRadius(opts.R-2))
			tr.end(sp)
			if err != nil {
				return fmt.Errorf("replay %d: plan: %w", s.idx, err)
			}
			a := mallocs()
			sp = tr.begin("engine.solve", root, id)
			t := time.Now()
			res.Sol, res.Delta, res.Cached, res.Err = engine.SolveDelta(ctx, job.Delta.Base, job.Delta.Edits, sc, ca)
			res.Latency = time.Since(t)
			tr.end(sp)
			allocs = append(allocs, float64(mallocs()-a))
			tr.stages(sp, id, &sc.Trace)
			stageMS(&sc.Trace, obs.StageDeltaPlan, &planMS)
			stageMS(&sc.Trace, obs.StageDeltaKernel, &dkernelMS)
			stageMS(&sc.Trace, obs.StageDeltaSplice, &spliceMS)
		}
		if res.Err != nil {
			return fmt.Errorf("replay %d: solve: %w", s.idx, res.Err)
		}
		stageMS(&sc.Trace, obs.StageTransform, &transformMS)
		stageMS(&sc.Trace, obs.StageBackMap, &backMapMS)
		if ns := sc.Trace.NS(obs.StageKernel); ns > 0 {
			kernelMS = append(kernelMS, float64(ns)/1e6)
			kernelPerAgent = append(kernelPerAgent, float64(ns)/float64(in.NumAgents))
		}
		agents = append(agents, float64(in.NumAgents))

		sp := tr.begin("mmlp.encode", root, id)
		var err error
		if res.Delta != nil {
			_, err = json.Marshal(batch.DeltaResponseFromResult(res))
		} else {
			_, err = json.Marshal(batch.ResponseFromResult(res))
		}
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("replay %d: encode: %w", s.idx, err)
		}
		tr.end(root)
	}

	values["mmlp.decode_ms"] = median(tr.ms("mmlp.decode"))
	values["mmlp.encode_ms"] = median(tr.ms("mmlp.encode"))
	values["canon.canonicalize_ms"] = median(tr.ms("canon.canonicalize"))
	values["canon.hash_ms"] = median(tr.ms("canon.hash"))
	values["canon.hash_bytes_ms"] = median(tr.ms("canon.hash_bytes"))
	values["engine.solve_ms"] = median(tr.ms("engine.solve"))
	values["delta.apply_ms"] = median(tr.ms("delta.apply"))
	values["delta.bfs_ms"] = median(tr.ms("delta.bfs"))
	values["transform.ms"] = median(transformMS)
	values["engine.back_map_ms"] = median(backMapMS)
	values["core.kernel_ms"] = median(kernelMS)
	values["core.kernel_ns_per_agent"] = median(kernelPerAgent)
	values["core.agents_per_solve"] = median(agents)
	values["delta.plan_ms"] = median(planMS)
	values["delta.kernel_ms"] = median(dkernelMS)
	values["delta.splice_ms"] = median(spliceMS)
	values["delta.allocs_per_req"] = median(allocs)

	// The hash allocations on the instance the workload keys: the edited
	// instance on delta, the request instance elsewhere.
	r := w.request(streamTimed, 0)
	in := r.in
	if w.name == "delta" {
		edited, err := delta.Apply(w.canonSet[r.member], r.edits)
		if err != nil {
			return err
		}
		in = edited.Canonical()
	}
	values["canon.hash_allocs_cold_pool"], values["canon.hash_allocs_warm_pool"] = hashAllocs(in, opts)
	return nil
}
