// Command perfbench is the repository's fleet benchmark. It boots one
// mmlprouter in front of two mmlpserve shards (one worker each) on fixed
// loopback addresses, drives one named workload through the router from
// two closed-loop clients for a fixed window, verifies every answer
// against in-process solves, and prints the metrics as the last line of
// its standard output.
//
// Usage (from the repository root; perfbench/run.sh builds the binaries):
//
//	perfbench -bin DIR -out DIR --workload cold|warm|delta --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics of an untraced window.
// With --trace 1 it runs half the window untraced and half with ?trace=1,
// pairs requests sent through the router with the same requests sent
// straight to their owning shard, replays the workload in process through
// the layer functions with spans around each call, and prints the
// per-layer metrics.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// setupRepeats is how many times a run boots and primes a fleet; setup_s
// is the median, and the last fleet serves the timed window.
const setupRepeats = 5

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	root     string
	bin      string
	out      string
}

func parseFlags(args []string) (*config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	c := &config{}
	fs.StringVar(&c.workload, "workload", "", "workload: cold, warm or delta")
	fs.Int64Var(&c.seed, "seed", 1, "input seed")
	fs.IntVar(&c.seconds, "seconds", 10, "length of the timed window in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
	fs.StringVar(&c.root, "root", ".", "repository root (hashed into the result's source digest)")
	fs.StringVar(&c.bin, "bin", "", "directory holding the mmlpserve and mmlprouter binaries")
	fs.StringVar(&c.out, "out", "", "directory for fleet logs and span files")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if c.bin == "" || c.out == "" {
		return nil, errors.New("-bin and -out are required")
	}
	if c.seconds < 1 {
		return nil, fmt.Errorf("--seconds must be ≥ 1, got %d", c.seconds)
	}
	if *trace != 0 && *trace != 1 {
		return nil, fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	c.trace = *trace == 1
	return c, nil
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	stopOnSignal()
	res, err := run(cfg)
	stopActive()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(res.line())
}

// The fleet currently up, stopped on SIGINT/SIGTERM so an interrupted run
// leaves no processes behind.
var (
	activeMu sync.Mutex
	active   *fleet
)

func setActive(f *fleet) {
	activeMu.Lock()
	active = f
	activeMu.Unlock()
}

func stopActive() {
	activeMu.Lock()
	defer activeMu.Unlock()
	if active != nil {
		active.stop()
		active = nil
	}
}

func stopOnSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ch
		stopActive()
		os.Exit(1)
	}()
}

// setupTimes is one boot-and-prime of the fleet.
type setupTimes struct {
	Boot  float64 `json:"boot_s"`
	Prime float64 `json:"prime_s"`
	Total float64 `json:"setup_s"`
}

// bootAndPrime spawns a fleet, waits for readiness and sends the priming
// requests, timing each phase from the spawn.
func bootAndPrime(cfg *config, w *workload, prime [][]request, tag string) (*fleet, setupTimes, error) {
	if err := waitPortsFree(10 * time.Second); err != nil {
		return nil, setupTimes{}, err
	}
	t0 := time.Now()
	f, err := startFleet(cfg.bin, cfg.out, tag, w.cacheBytes)
	if err != nil {
		return nil, setupTimes{}, err
	}
	setActive(f)
	if err := f.waitReady(30 * time.Second); err != nil {
		return nil, setupTimes{}, err
	}
	tReady := time.Now()
	for _, phase := range prime {
		if err := sendAll(phase); err != nil {
			return nil, setupTimes{}, err
		}
	}
	tPrimed := time.Now()
	return f, setupTimes{
		Boot:  tReady.Sub(t0).Seconds(),
		Prime: tPrimed.Sub(tReady).Seconds(),
		Total: tPrimed.Sub(t0).Seconds(),
	}, nil
}

// meta is the run's identity, printed on the line before the result.
type meta struct {
	Workload     string              `json:"workload"`
	Seed         int64               `json:"seed"`
	Seconds      int                 `json:"seconds"`
	Trace        bool                `json:"trace"`
	NProc        int                 `json:"nproc"`
	GoVersion    string              `json:"go_version"`
	Commit       string              `json:"commit"`
	Source       string              `json:"source_sha256"`
	FleetFlags   map[string][]string `json:"fleet_flags"`
	Conns        int                 `json:"conns"`
	Setups       []setupTimes        `json:"setups"`
	KeysPerShard map[string]int      `json:"keys_per_shard"`
	ReqsPerShard map[string]int      `json:"requests_per_shard"`
	Samples      int                 `json:"latency_samples"`
	Failures     []string            `json:"failures,omitempty"`
}

func run(cfg *config) (*result, error) {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	w, err := newWorkload(cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	prime := w.prime()
	primed := 0
	for _, phase := range prime {
		primed += len(phase)
	}
	digest, err := sourceDigest(cfg.root)
	if err != nil {
		return nil, err
	}
	m := newMeta(cfg, w, digest)

	var f *fleet
	for k := 0; k < setupRepeats; k++ {
		tag := fmt.Sprintf("%s-setup%d", cfg.workload, k)
		var st setupTimes
		f, st, err = bootAndPrime(cfg, w, prime, tag)
		if err != nil {
			return nil, err
		}
		m.Setups = append(m.Setups, st)
		if k < setupRepeats-1 {
			stopActive()
		}
	}
	m.Commit = f.revision()

	var res *result
	if cfg.trace {
		res, err = tracedRun(cfg, w, f, m, primed)
	} else {
		res, err = plainRun(cfg, w, f, m, primed)
	}
	if err != nil {
		return nil, err
	}
	b, _ := json.Marshal(map[string]*meta{"meta": m})
	fmt.Println(string(b))
	for _, e := range m.Failures {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
	}
	return res, nil
}

// newMeta records what identifies a run: its arguments, the machine's
// CPU count, the Go version, the source digest and the fleet's flags. The
// commit is filled in from the fleet's /healthz once it is up.
func newMeta(cfg *config, w *workload, digest string) *meta {
	return &meta{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		NProc: runtime.NumCPU(), GoVersion: runtime.Version(), Commit: "unknown", Source: digest,
		FleetFlags: fleetFlags(w.cacheBytes), Conns: conns,
	}
}

// sourceDigest hashes the Go sources and module files under root: the
// tree's identity even where it is not a repository and has no commit.
func sourceDigest(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if n := d.Name(); strings.HasSuffix(n, ".go") || n == "go.mod" || n == "go.sum" {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(b))
			h.Write(b)
		}
		return nil
	})
	if err != nil {
		return "", fmt.Errorf("hash sources: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// shardSplit counts, per shard, the distinct keys and the requests of the
// given samples, and returns the largest share of distinct keys one shard
// owns.
func shardSplit(w *workload, samples []sample) (keys, reqs map[string]int, maxShare float64) {
	ring := newRing()
	keys, reqs = map[string]int{}, map[string]int{}
	seen := map[string]bool{}
	for _, a := range shardAddrs {
		keys[a], reqs[a] = 0, 0
	}
	for _, s := range samples {
		k := w.key(w.request(streamTimed, s.idx))
		owner := ring.Owner(k)
		reqs[owner]++
		if !seen[string(k[:])] {
			seen[string(k[:])] = true
			keys[owner]++
		}
	}
	for _, n := range keys {
		maxShare = max(maxShare, float64(n)/float64(len(seen)))
	}
	return keys, reqs, maxShare
}

// latencyMS returns the request latencies in milliseconds, ascending; a
// failed request counts as infinitely slow.
func latencyMS(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = float64(s.lat) / 1e6
		if s.err != nil || s.status != 200 {
			out[i] = math.Inf(1)
		}
	}
	sort.Float64s(out)
	return out
}

func medianSetup(setups []setupTimes, get func(setupTimes) float64) float64 {
	xs := make([]float64, len(setups))
	for i, s := range setups {
		xs[i] = get(s)
	}
	return median(xs)
}

// plainRun measures the end-to-end metrics over one untraced window.
func plainRun(cfg *config, w *workload, f *fleet, m *meta, primed int) (*result, error) {
	samples, elapsed := window(w, 0, time.Duration(cfg.seconds)*time.Second, "")
	fs, err := f.stats()
	if err != nil {
		return nil, err
	}
	var rssKiB int64
	for _, pid := range append(f.shardPIDs(), f.routerPID()) {
		kib, err := vmHWMKiB(pid)
		if err != nil {
			return nil, err
		}
		rssKiB += kib
	}
	stopActive()

	var failures []string
	if err := conservation(fs, int64(primed+len(samples)), 0); err != nil {
		failures = append(failures, err.Error())
	}
	if fs.Router.Retried != 0 {
		failures = append(failures, fmt.Sprintf("router retried %d hops", fs.Router.Retried))
	}
	v := newVerifier(w)
	v.pickExact(samples)
	ok, bad := v.checkAll(streamTimed, samples, true)
	for _, e := range bad {
		failures = append(failures, e.Error())
	}
	m.KeysPerShard, m.ReqsPerShard, _ = shardSplit(w, samples)
	m.Samples = len(samples)
	m.Failures = failures

	lat := latencyMS(samples)
	p50, err := percentile(lat, 0.50)
	if err != nil {
		return nil, err
	}
	p99, err := percentile(lat, 0.99)
	if err != nil {
		return nil, err
	}
	values := map[string]float64{
		"throughput_rps": float64(ok) / elapsed.Seconds(),
		"p50_ms":         p50,
		"p99_ms":         p99,
		"success_ratio":  float64(ok) / float64(len(samples)),
		"setup_s":        medianSetup(m.Setups, func(s setupTimes) float64 { return s.Total }),
		"peak_rss_mib":   float64(rssKiB) / 1024,
	}
	metrics, err := render(endToEnd, values)
	if err != nil {
		return nil, err
	}
	return &result{Correct: len(failures) == 0, Attempted: len(samples), Failed: len(samples) - ok, Metrics: metrics}, nil
}
